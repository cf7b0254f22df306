"""Tests for class-importance weights and the base-rate shift they induce."""

import math

import numpy as np
import pytest

from evidkit.base_rates import CIWTable, adjust_base_rates, sigmoid
from evidkit.errors import ConfigError


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for x in np.linspace(-30, 30, 101):
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        assert sigmoid(1.0) == pytest.approx(0.73106, abs=5e-6)

    def test_monotone(self):
        xs = np.linspace(-20, 20, 200)
        ys = [sigmoid(x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_no_overflow_in_the_tails(self):
        assert sigmoid(-1e4) == pytest.approx(0.0, abs=1e-300)
        assert sigmoid(1e4) == 1.0


class TestCIWTable:
    def test_duplicate_class_rejected(self):
        with pytest.raises(ConfigError):
            CIWTable.from_pairs([("crack", 0.5), ("crack", 0.7)])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ConfigError):
            CIWTable.from_pairs([("crack", float("nan"))])

    def test_order_and_accessors(self):
        t = CIWTable.from_pairs([("b", 0.2), ("a", 0.9)])
        assert t.entries == (("b", 0.2), ("a", 0.9))
        assert t.weights == (0.2, 0.9)
        assert len(t) == 2

    def test_uniform_constructor(self):
        t = CIWTable.uniform(["x", "y", "z"], weight=0.5)
        assert t.weights == (0.5, 0.5, 0.5)


class TestAdjustBaseRates:
    def test_zero_weight_is_identity_on_uniform_prior(self):
        (pair,) = adjust_base_rates(CIWTable.from_pairs([("c", 0.0)]))
        assert pair.a_pos == 0.5
        assert pair.a_neg == 0.5

    def test_unit_weight(self):
        (pair,) = adjust_base_rates(CIWTable.from_pairs([("c", 1.0)]))
        assert pair.a_pos == pytest.approx(0.7311, abs=5e-5)
        assert pair.a_neg == pytest.approx(0.2689, abs=5e-5)

    def test_uniform_prior_gives_sigmoid_exactly(self):
        """Bit for bit over the accepted weights; 1/2 + (sigmoid(w) - 1/2)
        cancels digits for w < ln(1/3)."""
        rng = np.random.default_rng(3)
        weights = rng.uniform(-36, 36, size=200)
        table = CIWTable.from_pairs((f"c{i}", w) for i, w in enumerate(weights))
        for pair, w in zip(adjust_base_rates(table), weights):
            assert pair.a_pos == sigmoid(w)

    def test_pairs_sum_to_one(self):
        rng = np.random.default_rng(4)
        table = CIWTable.from_pairs(
            (f"c{i}", w) for i, w in enumerate(rng.uniform(-3, 3, size=50))
        )
        for pair in adjust_base_rates(table):
            assert pair.a_pos + pair.a_neg == pytest.approx(1.0, abs=1e-12)

    def test_strictly_monotone_in_the_weight(self):
        """A strictly larger CIW must produce a strictly larger defective prior."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = np.sort(rng.uniform(-6, 6, size=8))
            if len(np.unique(w)) < len(w):
                continue
            table = CIWTable.from_pairs((f"c{i}", v) for i, v in enumerate(w))
            a_pos = [p.a_pos for p in adjust_base_rates(table)]
            assert all(b > a for a, b in zip(a_pos, a_pos[1:]))

    def test_saturation_approaches_certainty(self):
        values = [adjust_base_rates(CIWTable.from_pairs([("c", w)]))[0].a_pos
                  for w in (2.0, 5.0, 10.0, 20.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.999999

    def test_fully_saturated_weight_rejected(self):
        # sigmoid(40) rounds to 1.0 in float64, leaving no room for a_neg
        with pytest.raises(ConfigError, match=r"too extreme for prior \(0\.5, 0\.5\)$"):
            adjust_base_rates(CIWTable.from_pairs([("c", 40.0)]))

    def test_negative_weight_lowers_defective_prior(self):
        (pair,) = adjust_base_rates(CIWTable.from_pairs([("c", -2.0)]))
        assert pair.a_pos == pytest.approx(sigmoid(-2.0), abs=1e-12)
        assert pair.a_pos < 0.5
