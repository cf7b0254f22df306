"""Tests for prediction, uncertainty aggregation, and the metric suite."""

import csv
import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit import evaluation
from evidkit.base_rates import CIWTable
from evidkit.errors import ConfigError
from evidkit.evaluation import (
    AggregationMode,
    _aggregate_rows,
    _tie_groups,
    aupr,
    auroc,
    baseline_ood_scores,
    f1_normal,
    f2_ciw,
    fpr_at_95_tpr,
    parse_aggregation,
    per_class_f2,
    predict_batch,
    render_report,
    write_scores_csv,
)
from evidkit.opinions import (
    BaseRatePair,
    EvidencePair,
    dirichlet_from_evidence,
    expected_probability,
    opinion_from_evidence,
)


def _aggregate(u, mode):
    """Aggregate one sample's per-class uncertainties."""
    return float(_aggregate_rows(np.asarray(u, dtype=np.float64)[None, :], mode)[0])


def _one(e_pos, e_neg, a_pos=0.5, **kwargs):
    """predict_batch on one sample with one class."""
    return predict_batch(np.array([[[e_pos, e_neg]]]), np.array([a_pos]),
                         np.array([1.0 - a_pos]), **kwargs)


class TestAggregation:
    def test_examples(self):
        u = (0.2, 0.9, 0.5)
        assert _aggregate(u, AggregationMode("max")) == 0.9
        assert _aggregate(u, AggregationMode("sum")) == pytest.approx(1.6)
        assert _aggregate(u, AggregationMode("topm", 2)) == pytest.approx(1.4)

    def test_topm_larger_than_vector_is_sum(self):
        u = (0.2, 0.9)
        assert _aggregate(u, AggregationMode("topm", 5)) == pytest.approx(
            _aggregate(u, AggregationMode("sum"))
        )

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
        st.integers(1, 12),
    )
    def test_max_below_topm_below_sum(self, u, m):
        lo = _aggregate(u, AggregationMode("max"))
        mid = _aggregate(u, AggregationMode("topm", m))
        hi = _aggregate(u, AggregationMode("sum"))
        assert lo <= mid + 1e-12 and mid <= hi + 1e-12

    def test_parse(self):
        assert parse_aggregation("max") == AggregationMode("max")
        assert parse_aggregation(" SUM ") == AggregationMode("sum")
        assert parse_aggregation("top5") == AggregationMode("topm", 5)
        assert str(parse_aggregation("top5")) == "top5"
        with pytest.raises(ConfigError):
            parse_aggregation("median")
        with pytest.raises(ConfigError):
            parse_aggregation("top0")

    def test_mode_validation(self):
        with pytest.raises(ConfigError):
            AggregationMode("avg")
        with pytest.raises(ConfigError):
            AggregationMode("topm", 0)


class TestPredict:
    def test_no_evidence_returns_base_rates_and_full_uncertainty(self):
        pred = _one(0.0, 0.0)
        assert pred.probabilities.tolist() == [[0.5]]
        assert pred.uncertainties.tolist() == [[1.0]]
        assert pred.uncertainty.tolist() == [1.0]
        assert pred.labels.tolist() == [[False]]  # 0.5 is not above the 0.5 threshold

    def test_hand_example(self):
        pred = _one(2.0, 0.0)
        assert pred.probabilities[0, 0] == pytest.approx(0.75)
        assert pred.uncertainties[0, 0] == pytest.approx(0.5)
        assert pred.labels.tolist() == [[True]]

    def test_raised_base_rate_tips_a_vacuous_class(self):
        # sigmoid(1.0) = 0.7311; with zero evidence the expected probability
        # equals the prior, so the class is predicted present.
        pred = _one(0.0, 0.0, a_pos=0.7310585786300049)
        assert pred.labels.tolist() == [[True]]
        assert pred.probabilities[0, 0] == pytest.approx(0.7310585786300049)

    def test_threshold_is_strict(self):
        pred = _one(2.0, 2.0, threshold=0.5)
        assert pred.probabilities[0, 0] == pytest.approx(0.5)
        assert pred.labels.tolist() == [[False]]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            predict_batch(np.ones((1, 1, 2)), np.full(2, 0.5), np.full(2, 0.5))


class TestPredictBatch:
    def test_agrees_with_scalar_predict(self):
        """Probability and vacuity match the scalar opinions API per head."""
        rng = np.random.default_rng(11)
        ev = rng.uniform(0.0, 30.0, size=(50, 4, 2))
        a_pos = rng.uniform(0.1, 0.9, size=4)
        a_neg = 1.0 - a_pos
        batch = predict_batch(ev, a_pos, a_neg, threshold=0.4)
        probs = np.empty((50, 4))
        uncs = np.empty((50, 4))
        for i in range(ev.shape[0]):
            for k in range(4):
                e = EvidencePair(*ev[i, k])
                a = BaseRatePair(a_pos[k], a_neg[k])
                probs[i, k] = expected_probability(dirichlet_from_evidence(e, a))[0]
                uncs[i, k] = opinion_from_evidence(e, a).u
        np.testing.assert_allclose(batch.probabilities, probs, rtol=1e-12)
        np.testing.assert_allclose(batch.uncertainties, uncs, rtol=1e-12)
        np.testing.assert_array_equal(batch.labels, probs > 0.4)
        np.testing.assert_allclose(batch.uncertainty, uncs.max(axis=1), rtol=1e-12)

    def test_aggregation_modes_apply_per_row(self):
        ev = np.zeros((2, 3, 2))
        ev[0, 0, 0] = 2.0  # strength 4 -> u = 0.5 for that class
        out = predict_batch(ev, np.full(3, 0.5), np.full(3, 0.5),
                            agg=AggregationMode("sum"))
        assert out.uncertainty[0] == pytest.approx(2.5)
        assert out.uncertainty[1] == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "ev",
        [np.zeros((3, 2)), np.zeros((3, 4, 3)), -np.ones((3, 4, 2)),
         np.full((3, 4, 2), np.nan)],
    )
    def test_bad_evidence_rejected(self, ev):
        with pytest.raises(ValueError):
            predict_batch(ev, np.full(4, 0.5), np.full(4, 0.5))


class TestF1Normal:
    def test_perfect_predictions(self):
        y = np.array([[1, 0], [0, 0], [0, 1], [0, 0]])
        assert f1_normal(y, y) == 1.0

    def test_everything_flagged_defective_scores_zero(self):
        true = np.array([[0, 0], [1, 0], [0, 0]])
        pred = np.ones_like(true)
        assert f1_normal(pred, true) == 0.0

    def test_hand_counts(self):
        # 8 true normals found, 2 false alarms, 2 missed: F1 = 16/20
        true = np.zeros((14, 1), dtype=int)
        true[10:] = 1                      # 4 defective
        pred = np.zeros((14, 1), dtype=int)
        pred[8:10] = 1                     # miss two normals
        pred[12:] = 1                      # call two defectives normal (10, 11)
        assert f1_normal(pred, true) == pytest.approx(0.8)

    def test_undefined_case_warns_and_returns_zero(self):
        true = np.array([[1], [1]])
        pred = np.array([[1], [1]])
        with pytest.warns(UserWarning):
            assert f1_normal(pred, true) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            f1_normal(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            f1_normal(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        true = rng.integers(0, 2, size=(60, 3))
        pred = rng.integers(0, 2, size=(60, 3))
        perm = rng.permutation(60)
        assert f1_normal(pred, true) == f1_normal(pred[perm], true[perm])


class TestPerClassF2:
    def test_recall_weighted_above_precision(self):
        # tp=2, fp=1, fn=0: precision 2/3, recall 1, F2 = 5*(2/3)/(4*(2/3)+1)
        true = np.array([[1], [1], [0]])
        pred = np.array([[1], [1], [1]])
        p, r, f2 = per_class_f2(pred, true)[0]
        assert p == pytest.approx(2 / 3)
        assert r == 1.0
        assert f2 == pytest.approx(10 / 11)

    def test_absent_class_is_vacuously_perfect(self):
        true = np.array([[1, 0], [0, 0]])
        pred = np.array([[1, 0], [0, 0]])
        assert per_class_f2(pred, true)[1] == (1.0, 1.0, 1.0)

    def test_all_wrong_is_zero(self):
        true = np.array([[1], [0]])
        pred = np.array([[0], [1]])
        assert per_class_f2(pred, true)[0] == (0.0, 0.0, 0.0)


class TestF2Ciw:
    def test_perfect_is_one_for_any_weights(self):
        y = np.array([[1, 0], [0, 1], [0, 0]])
        for w in (0.1, 0.5, 1.0):
            table = CIWTable.from_pairs([("a", w), ("b", 2 * w)])
            assert f2_ciw(y, y, table) == 1.0

    def test_weighted_average_example(self):
        # class a scores F2 = 1, class b scores F2 = 0.5; weights 2:1
        true = np.array([[1, 1], [0, 1], [0, 0]])
        pred = np.array([[1, 1], [0, 0], [0, 1]])
        table = CIWTable.from_pairs([("a", 2.0), ("b", 1.0)])
        assert f2_ciw(pred, true, table) == pytest.approx(5 / 6)

    def test_uniform_weights_match_macro_mean(self):
        rng = np.random.default_rng(3)
        true = rng.integers(0, 2, size=(40, 5))
        pred = rng.integers(0, 2, size=(40, 5))
        table = CIWTable.uniform([f"c{i}" for i in range(5)], weight=0.7)
        macro = np.mean([row[2] for row in per_class_f2(pred, true)])
        assert f2_ciw(pred, true, table) == pytest.approx(macro, rel=1e-12)

    def test_zero_weight_sum_rejected(self):
        y = np.array([[1, 0]])
        table = CIWTable.uniform(["a", "b"], weight=0.0)
        with pytest.raises(ConfigError):
            f2_ciw(y, y, table)

    def test_negative_weight_rejected(self):
        # 2 * 1.0 - 1 * 0.0 over a sum of 1 would score 2.0
        true = np.array([[1, 1], [0, 0]])
        pred = np.array([[1, 0], [0, 1]])
        table = CIWTable.from_pairs([("a", 2.0), ("b", -1.0)])
        with pytest.raises(ConfigError, match=">= 0"):
            f2_ciw(pred, true, table)

    def test_class_count_mismatch_rejected(self):
        y = np.array([[1, 0]])
        with pytest.raises(ConfigError):
            f2_ciw(y, y, CIWTable.uniform(["a", "b", "c"], weight=1.0))


_RANKING_SCORES = np.array([0.1, 0.2, 0.3, 0.4])
_MATRIX_PRED = np.array([[0, 1], [1, 0], [0, 0]])


def _bad_ranking_labels(bad):
    return np.array([0.0, bad, 0.0, 1.0])


def _bad_label_matrix(bad):
    return np.array([[0.0, 1.0], [bad, 0.0], [0.0, 0.0]])


class TestLabelValues:
    """A label that is not bool, 0 or 1 is named, not cast: a cast reads
    0.5 or NaN as True."""

    @pytest.mark.parametrize("bad", [0.5, np.nan, 2.0, -1.0])
    @pytest.mark.parametrize(
        "call, where",
        [
            (lambda bad: auroc(_RANKING_SCORES, _bad_ranking_labels(bad)), "index 1"),
            (lambda bad: aupr(_RANKING_SCORES, _bad_ranking_labels(bad)), "index 1"),
            (lambda bad: fpr_at_95_tpr(_RANKING_SCORES, _bad_ranking_labels(bad)), "index 1"),
            (lambda bad: f1_normal(_MATRIX_PRED, _bad_label_matrix(bad)), "row 1, class 0"),
            (lambda bad: f2_ciw(_MATRIX_PRED, _bad_label_matrix(bad),
                                CIWTable.uniform(["a", "b"], 0.5)), "row 1, class 0"),
            (lambda bad: per_class_f2(_bad_label_matrix(bad), _MATRIX_PRED), "row 1, class 0"),
        ],
        ids=["auroc", "aupr", "fpr_at_95_tpr", "f1_normal", "f2_ciw", "per_class_f2"],
    )
    def test_non_binary_label_rejected(self, call, where, bad):
        with pytest.raises(ValueError, match=f"labels must be 0 or 1, but {where} is {bad!r}"):
            call(bad)


def _pair_count_auroc(scores, labels):
    """Literal Mann-Whitney: count positive-negative pairs, ties as 1/2."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    pos = s[y]
    neg = s[~y]
    wins = sum(float(p > q) + 0.5 * float(p == q) for p in pos for q in neg)
    return wins / (pos.size * neg.size)


class TestAuroc:
    def test_perfect_and_inverted(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        assert auroc(scores, labels) == 1.0
        assert auroc([-s for s in scores], labels) == 0.0

    def test_constant_scores_give_half(self):
        assert auroc(np.ones(10), [1] * 4 + [0] * 6) == 0.5

    def test_matches_pair_counting_with_ties(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            scores = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            labels = rng.integers(0, 2, size=n)
            if labels.all() or not labels.any():
                continue
            assert auroc(scores, labels) == pytest.approx(
                _pair_count_auroc(scores, labels), abs=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, size=30)
        labels[0], labels[1] = 1, 0
        base = auroc(scores, labels)
        assert auroc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auroc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    def test_degenerate_labels_rejected(self):
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError):
            auroc([0.1, 0.2], [0, 0])
        with pytest.raises(ValueError):
            auroc([np.nan, 0.2], [1, 0])


class TestAupr:
    def test_perfect_ranking(self):
        assert aupr([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_single_positive_ranked_first(self):
        scores = np.linspace(1.0, 0.0, 20)
        labels = np.zeros(20, dtype=int)
        labels[0] = 1
        assert aupr(scores, labels) == 1.0

    def test_constant_scores_give_prevalence(self):
        labels = np.array([1] * 3 + [0] * 7)
        assert aupr(np.ones(10), labels) == pytest.approx(0.3)

    def test_random_scores_approach_prevalence(self):
        rng = np.random.default_rng(1234)
        n = 10_000
        labels = (rng.uniform(size=n) < 0.3).astype(int)
        scores = rng.uniform(size=n)
        pi = labels.mean()
        assert aupr(scores, labels) == pytest.approx(pi, abs=0.05)


def _prefix_sweep_fpr95(scores, labels, target=0.95):
    """Oracle for tie-free scores: every threshold set is a top-j prefix."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    order = np.argsort(-s)
    y_sorted = y[order]
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    best = 1.0
    for j in range(s.size + 1):
        taken = y_sorted[:j]
        if taken.sum() / n_pos >= target:
            best = min(best, (j - taken.sum()) / n_neg)
    return float(best)


class TestFpr95:
    def test_perfect_separation(self):
        assert fpr_at_95_tpr([3.0, 2.0, 1.0, 0.0], [1, 1, 0, 0]) == 0.0

    def test_identical_scores(self):
        # the only threshold reaching 95% TPR flags everything
        assert fpr_at_95_tpr(np.ones(8), [1] * 4 + [0] * 4) == 1.0

    def test_tie_groups_move_together(self):
        scores = [1.0, 1.0, 1.0, 0.0]
        labels = [1, 0, 1, 0]
        assert fpr_at_95_tpr(scores, labels) == 0.5

    def test_matches_prefix_oracle_on_tie_free_scores(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(10, 60))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [1, 0]
            assert fpr_at_95_tpr(scores, labels) == _prefix_sweep_fpr95(scores, labels)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [1, 0]
        assert fpr_at_95_tpr(scores + 100.0, labels) == fpr_at_95_tpr(scores, labels)

    def test_separating_distributions_lowers_fpr(self):
        rng = np.random.default_rng(5)
        known = rng.normal(0.0, 1.0, size=200)
        unknown = rng.normal(0.5, 1.0, size=200)
        labels = np.r_[np.zeros(200), np.ones(200)]
        close = fpr_at_95_tpr(np.r_[known, unknown], labels)
        far = fpr_at_95_tpr(np.r_[known, unknown + 4.0], labels)
        assert far <= close


# Test-only copies of the per-group loop implementations that the shared
# sort-and-cumulative-count sweep replaced, and an exhaustive FPR95 sweep.
# The sweep does the same arithmetic, so results must be equal, not close.
def _loop_auroc(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    order = np.argsort(s, kind="mergesort")
    sx = s[order]
    boundaries = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1], True])
    ranks = np.empty(s.size, dtype=np.float64)
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        ranks[order[start:stop]] = 0.5 * (start + stop + 1)
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    rank_sum = float(ranks[y].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _loop_aupr(scores, labels):
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    order = np.argsort(-s, kind="mergesort")
    s_sorted, y_sorted = s[order], y[order]
    n_pos = int(y.sum())
    tp = fp = 0
    prev_recall = area = 0.0
    i = 0
    while i < s.size:
        j = i
        while j < s.size and s_sorted[j] == s_sorted[i]:
            j += 1
        tp += int(y_sorted[i:j].sum())
        fp += (j - i) - int(y_sorted[i:j].sum())
        recall = tp / n_pos
        area += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
        i = j
    return area


def _exhaustive_fpr95(scores, labels, target=0.95):
    """Flag score > t for t = -inf and every distinct score."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    best = 1.0
    for t in np.concatenate(([-np.inf], np.unique(s))):
        flagged = s > t
        if float((flagged & y).sum()) / n_pos >= target:
            best = min(best, float((flagged & ~y).sum()) / n_neg)
    return best


_TIED_SCORE = st.one_of(
    st.integers(-6, 6).map(lambda k: k / 7.0),
    st.sampled_from([np.inf, -np.inf]),
)


@st.composite
def _tied_samples(draw):
    """Tie-heavy scores with both classes present; one draw in five is a
    single tie group."""
    n = draw(st.integers(2, 60))
    single = draw(st.integers(0, 4)) == 0
    pool = st.just(draw(_TIED_SCORE)) if single else _TIED_SCORE
    scores = draw(st.lists(pool, min_size=n, max_size=n))
    labels = draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda v: any(v) and not all(v))
    )
    return np.array(scores, dtype=np.float64), np.array(labels)


class TestTieGroupSweep:
    @settings(max_examples=300, deadline=None)
    @given(_tied_samples())
    def test_auroc_equals_rank_loop(self, sample):
        assert auroc(*sample) == _loop_auroc(*sample)

    @settings(max_examples=300, deadline=None)
    @given(_tied_samples())
    def test_aupr_equals_group_loop(self, sample):
        assert aupr(*sample) == _loop_aupr(*sample)

    @settings(max_examples=300, deadline=None)
    @given(_tied_samples(), st.sampled_from([0.5, 0.9, 0.95, 1.0]))
    def test_fpr95_equals_exhaustive_sweep(self, sample, target):
        # the target is a module constant, read at call time, so the same
        # sweep is checked at the other targets too
        with mock.patch.object(evaluation, "_TPR_TARGET", target):
            got = fpr_at_95_tpr(*sample)
        assert got == _exhaustive_fpr95(*sample, target)

    @pytest.mark.parametrize(
        "high, low",
        [
            # the midpoint of adjacent doubles rounds onto the upper one
            (np.nextafter(1.0000000000000002, np.inf), 1.0000000000000002),
            # the midpoint of scores near the top of the range overflows to inf
            (1.5e308, 1.0e308),
        ],
    )
    def test_fpr95_keeps_operating_points_between_close_or_huge_scores(self, high, low):
        scores = np.r_[np.full(20, high), low, 0.0]
        labels = np.r_[np.ones(20), 0, 0]
        assert fpr_at_95_tpr(scores, labels) == 0.0
        assert _exhaustive_fpr95(scores, labels) == 0.0

    def test_golden_values(self):
        # a fixed, tied 5k-score draw; the values are the loop
        # implementations' results, and no BLAS call is involved, so the
        # reprs hold on any platform
        rng = np.random.default_rng(5000)
        labels = rng.uniform(size=5000) < 0.3
        scores = (rng.integers(0, 200, size=5000) + 60 * labels) / 7.0
        assert repr(auroc(scores, labels)) == "0.7637489948470992"
        assert repr(aupr(scores, labels)) == "0.6541769294906443"
        assert repr(fpr_at_95_tpr(scores, labels)) == "0.6405622489959839"


def _stable_tie_groups(s, y):
    """The stable-sort version of ``_tie_groups``, kept as its oracle."""
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    ends = np.flatnonzero(np.r_[s_sorted[1:] != s_sorted[:-1], True])
    return ends + 1, np.cumsum(y[order])[ends]


# few distinct values, signed zeros and infinities, so most samples tie
_SIGNED_TIED_SCORE = st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0 / 7.0, -3.0 / 7.0, 1.0])


@st.composite
def _shuffled_tied_samples(draw):
    """Tie-heavy (scores, labels) with both classes, and a permutation."""
    n = draw(st.integers(2, 80))
    scores = np.array(draw(st.lists(_SIGNED_TIED_SCORE, min_size=n, max_size=n)))
    both = st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda v: any(v) and not all(v))
    labels = np.array(draw(both))
    perm = np.array(draw(st.permutations(range(n))))
    return scores, labels, perm


class TestTieOrder:
    """The ranking metrics read counts at tie-group ends only, so the order
    of the samples inside a tie, and so the sort's stability, cannot matter."""

    @settings(max_examples=300, deadline=None)
    @given(_shuffled_tied_samples())
    def test_metrics_equal_after_shuffle(self, sample):
        scores, labels, perm = sample
        for metric in (auroc, aupr, fpr_at_95_tpr):
            assert metric(scores, labels) == metric(scores[perm], labels[perm])

    @settings(max_examples=300, deadline=None)
    @given(_shuffled_tied_samples())
    def test_tie_groups_equal_stable_sort(self, sample):
        scores, labels, perm = sample
        for s, y in ((scores, labels), (scores[perm], labels[perm])):
            flagged, tp = _tie_groups(s, y)
            want_flagged, want_tp = _stable_tie_groups(s, y)
            np.testing.assert_array_equal(flagged, want_flagged)
            np.testing.assert_array_equal(tp, want_tp)

    def test_signed_zeros_share_a_group(self):
        flagged, tp = _tie_groups(np.array([0.0, -0.0, 1.0, -0.0]),
                                  np.array([True, False, False, True]))
        np.testing.assert_array_equal(flagged, [1, 4])
        np.testing.assert_array_equal(tp, [0, 2])


def _bits(value):
    return np.float64(value).tobytes()


_RANKINGS = (auroc, aupr, fpr_at_95_tpr)


@st.composite
def _interleaved_rankings(draw):
    """Tie-heavy (scores, labels) pairs of one length and a sequence of
    (pair, metric) calls over them. The pairs are a draw, its signed-zero
    twin (equal element by element), the draw relabelled, and a second draw."""
    n = draw(st.integers(2, 40))
    both = st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda v: any(v) and not all(v))
    first, second = (np.array(draw(st.lists(_SIGNED_TIED_SCORE, min_size=n, max_size=n)))
                     for _ in range(2))
    labels, relabelled = np.array(draw(both)), np.array(draw(both))
    twin = np.where(first == 0.0, -first, first)
    pairs = [(first, labels), (twin, labels), (first, relabelled), (second, labels)]
    calls = draw(st.lists(st.tuples(st.integers(0, len(pairs) - 1),
                                    st.integers(0, len(_RANKINGS) - 1)),
                          min_size=1, max_size=12))
    return pairs, calls


class TestRankingMemo:
    """auroc, aupr and fpr_at_95_tpr share the last vector's sort."""

    def _fresh(self, monkeypatch, metric, scores, labels):
        """The metric as a first call: nothing ranked before it."""
        monkeypatch.setattr(evaluation, "_last_ranked", None, raising=False)
        return metric(scores, labels)

    def test_three_metrics_sort_once(self, monkeypatch):
        rng = np.random.default_rng(26)
        scores = rng.integers(0, 40, size=500) / 7.0
        labels = rng.uniform(size=500) < 0.3
        monkeypatch.setattr(evaluation, "_last_ranked", None, raising=False)
        sorts = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(None) or argsort(*a, **k))
        for metric in _RANKINGS:
            metric(scores, labels)
        assert len(sorts) == 1

    def test_in_place_edits_are_seen(self, monkeypatch):
        rng = np.random.default_rng(27)
        scores = rng.integers(0, 6, size=60) / 7.0
        labels = np.arange(60) % 3 == 0
        before = [metric(scores, labels) for metric in _RANKINGS]
        scores[:20] = 1.0
        edited = [metric(scores, labels) for metric in _RANKINGS]
        labels[30:40] = ~labels[30:40]
        relabelled = [metric(scores, labels) for metric in _RANKINGS]
        assert edited != before and relabelled != edited
        assert relabelled == [self._fresh(monkeypatch, metric, scores.copy(), labels.copy())
                              for metric in _RANKINGS]

    @settings(max_examples=300, deadline=None)
    @given(_interleaved_rankings())
    def test_interleaved_calls_equal_stable_sort(self, case):
        pairs, calls = case
        for pair, m in calls:
            got = _RANKINGS[m](*pairs[pair])
            with mock.patch.object(evaluation, "_tie_groups", _stable_tie_groups):
                want = _RANKINGS[m](*pairs[pair])
            assert _bits(got) == _bits(want)

    def test_memo_keeps_no_caller_array_and_groups_are_read_only(self):
        scores = np.random.default_rng(28).normal(size=100)
        labels = np.arange(100) % 4 == 0
        refs = [weakref.ref(scores), weakref.ref(labels)]
        for metric in _RANKINGS:
            metric(scores, labels)
        del scores, labels
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        s = np.array([0.5, 0.0, 0.5, -0.0])
        y = np.array([True, False, False, True])
        for _ in range(2):  # a sort, then the memo
            flagged, tp = _tie_groups(s, y)
            assert not flagged.flags.writeable and not tp.flags.writeable


class TestBaselines:
    def test_maxlogit_hand_values(self):
        out = baseline_ood_scores(np.array([[3.0, -1.0], [0.5, 2.0]]), "maxlogit")
        np.testing.assert_allclose(out, [-3.0, -2.0])

    def test_jointenergy_matches_log1p_exp(self):
        rng = np.random.default_rng(6)
        z = rng.normal(scale=3.0, size=(20, 5))
        expected = -np.log1p(np.exp(z)).sum(axis=1)
        np.testing.assert_allclose(
            baseline_ood_scores(z, "jointenergy"), expected, rtol=1e-12
        )

    def test_confident_logits_score_more_known(self):
        weak = np.zeros((1, 4))
        confident = np.array([[10.0, 0.0, 0.0, 0.0]])
        for method in ("maxlogit", "jointenergy"):
            assert baseline_ood_scores(confident, method) < baseline_ood_scores(
                weak, method
            )

    def test_all_minus_infinity_is_maximally_unknown(self):
        z = np.full((1, 3), -np.inf)
        assert baseline_ood_scores(z, "maxlogit") == np.inf
        assert baseline_ood_scores(z, "jointenergy") == 0.0  # its largest value

    def test_single_row_matches_batch(self):
        # a single sample is a one-row batch; a 1-D row is a shape error
        z = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        for method in ("maxlogit", "jointenergy"):
            assert baseline_ood_scores(z[1:], method) == baseline_ood_scores(z, method)[1:]
            with pytest.raises(ValueError, match=r"expected \(N, K\) logits"):
                baseline_ood_scores(z[1], method)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            baseline_ood_scores(np.zeros((2, 2)), "softmax")


class TestReports:
    def _report(self, config=None):
        return {
            "task": "msdc",
            "config": config or {"seed": 7, "epochs": 60},
            "counts": {"known": 500, "unknown": 100},
            "metrics": {"f1_normal": 0.9375, "f2_ciw": 0.88, "auroc": 0.91,
                        "aupr": 0.52, "fpr95": 0.28},
            "per_class": {
                "crack": {"precision": 0.9, "recall": 0.8, "f2": 0.82, "weight": 0.75},
                "root": {"precision": 1.0, "recall": 1.0, "f2": 1.0, "weight": 0.25},
            },
        }

    def test_round_trip(self):
        """The rendered YAML reads back to every entry of the report."""
        report = self._report()
        assert yaml.safe_load(render_report(report)) == report

    def test_sections_are_optional(self):
        """Only the sections given are written; a train log has neither guarded one."""
        text = render_report({"task": "ood", "metrics": {"auroc": 0.8}})
        assert "f1_normal" not in text and "counts" not in text
        assert yaml.safe_load(text) == {"task": "ood", "metrics": {"auroc": 0.8}}
        log = {"command": "train", "final_loss": None, "epoch_losses": []}
        assert yaml.safe_load(render_report(log)) == log

    def test_render_is_deterministic(self):
        a = render_report(self._report({"b": 1, "a": 2}))
        b = render_report(self._report({"a": 2, "b": 1}))
        assert a == b

    def test_out_of_range_metric_rejected(self):
        with pytest.raises(ValueError, match="auroc must be in"):
            render_report({"metrics": {"auroc": 1.5}})
        with pytest.raises(ValueError, match="fpr95 must be in"):
            render_report({"metrics": {"fpr95": float("nan")}})
        with pytest.raises(ValueError, match="counts must be >= 0"):
            render_report({"counts": {"known": -1}})


class TestScoresCsv:
    def test_contents_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores = [0.125, 1.0 / 3.0, 5e-324, 0.1 + 0.2, 1.0]
        write_scores_csv(path, list("abcde"), scores, [False, True, False, True, False])
        lines = path.read_text().splitlines()
        assert lines[0] == "sample_id,uncertainty,is_unknown"
        assert lines[1:] == ["a,0.125,0", "b,0.3333333333333333,1", "c,5e-324,0",
                             "d,0.30000000000000004,1", "e,1.0,0"]
        # repr round-trips exactly
        assert [float(line.split(",")[1]) for line in lines[1:]] == scores

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_scores_csv(tmp_path / "s.csv", ["a"], [0.1, 0.2], [0, 1])

    @pytest.mark.parametrize("u, flags", [([[0.5]], [1]), ([0.5], [[1]])],
                             ids=["uncertainty-column", "flag-column"])
    def test_column_input_rejected(self, tmp_path, u, flags):
        # one element passes the length check, but its row would read "[0.5]" or "[1]"
        with pytest.raises(ValueError, match="must be vectors"):
            write_scores_csv(tmp_path / "s.csv", ["a"], u, flags)
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("bad", [0.5, float("nan"), 2, -1])
    def test_soft_flag_rejected(self, tmp_path, bad):
        # a cast to bool would write any nonzero flag, NaN too, as is_unknown 1
        with pytest.raises(ValueError, match=f"flags must be 0 or 1, but index 1 is {bad!r}"):
            write_scores_csv(tmp_path / "s.csv", ["a", "b", "c"], [0.5, 0.25, 0.1],
                             [1.0, bad, 0.5])
        assert not (tmp_path / "s.csv").exists()

    def test_bytes_equal_per_row_writer(self, tmp_path):
        # ids with a comma, a quote, a space and a newline must be quoted
        ids = ["va-00000", "a,b", 'say "hi"', " pad ", "two\nlines", "", "plain"]
        u = np.array([0.125, 1.0 / 3.0, -0.0, 1.0, 5e-324, 0.1 + 0.2, np.inf])
        flags = np.array([0, 1, 1, 0, 1, 0, 1])
        path = tmp_path / "scores.csv"
        write_scores_csv(path, ids, u, flags)
        want = tmp_path / "want.csv"
        with open(want, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["sample_id", "uncertainty", "is_unknown"])
            for sid, unc, flag in zip(ids, u, flags.astype(bool)):
                writer.writerow([sid, repr(float(unc)), int(flag)])
        assert path.read_bytes() == want.read_bytes()
        assert b'"a,b"' in path.read_bytes() and b'"say ""hi"""' in path.read_bytes()
