"""The inference kernels against the allocating expressions they replaced.

`extract_features`, `evidence_from_features` and `predict_batch` add
biases, apply ReLUs and divide in place, in fresh arrays they own. The
copies below keep the plain allocating form of the same arithmetic:
every output must equal theirs byte for byte, no input or parameter may
change, and the forward pass must keep its allocation peak.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit.evaluation import _aggregate_rows, parse_aggregation, predict_batch
from evidkit.network import batch_evidence, evidence_from_features, extract_features, init_model
from evidkit.opinions import DEFAULT_PRIOR_WEIGHT


def _allocating_features(x, mlp):
    h = np.asarray(x, dtype=np.float64)
    for w, b in mlp.layers:
        h = np.maximum(h @ w.T + b, 0.0)
    return h


def _allocating_evidence(features, head):
    f = np.asarray(features, dtype=np.float64)
    ev = np.maximum(f @ head.weight + head.bias, 0.0)
    return ev.reshape(f.shape[0], head.num_classes, 2)


def _allocating_predict(ev, a_pos, threshold, agg):
    strength = ev[:, :, 0] + ev[:, :, 1] + DEFAULT_PRIOR_WEIGHT
    probs = (ev[:, :, 0] + a_pos * DEFAULT_PRIOR_WEIGHT) / strength
    uncs = DEFAULT_PRIOR_WEIGHT / strength
    return probs, uncs, _aggregate_rows(uncs, agg), probs > threshold


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _snapshot(*arrays):
    return [a.tobytes() for a in arrays]


@st.composite
def _models(draw):
    """A seeded model, and inputs of shape (1, D) or (N, D) with
    signed zeros planted so that some pre-activations sit on the ReLU."""
    dim = draw(st.integers(1, 6))
    hidden = draw(st.sampled_from([(), (3,), (6, 5)]))
    k = draw(st.integers(1, 4))
    feature_dim = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    mlp, head = init_model(dim, k, hidden=hidden, feature_dim=feature_dim, seed=seed)
    rng = np.random.default_rng(seed)
    shape = (draw(st.sampled_from([1, 2, 17])), dim)
    x = rng.normal(size=shape) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    x[rng.uniform(size=shape) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    return mlp, head, x


def _parameters(mlp, head):
    return [a for layer in mlp.layers for a in layer] + [head.weight, head.bias]


class TestForwardKernels:
    @settings(max_examples=200, deadline=None)
    @given(_models())
    def test_equal_to_allocating_forward(self, model):
        mlp, head, x = model
        before = _snapshot(x, *_parameters(mlp, head))
        features = extract_features(x, mlp)
        _same_bytes(features, _allocating_features(x, mlp))
        features_before = features.tobytes()
        _same_bytes(evidence_from_features(features, head), _allocating_evidence(features, head))
        assert features.tobytes() == features_before
        _same_bytes(batch_evidence(mlp, head, x),
                    _allocating_evidence(_allocating_features(x, mlp), head))
        assert _snapshot(x, *_parameters(mlp, head)) == before


_EVIDENCE = st.sampled_from([0.0, -0.0, 5e-324, 1e-3, 0.5, 1.0, 3.0, 1e6, 1e300])


@st.composite
def _evidence(draw):
    n = draw(st.sampled_from([1, 2, 9]))
    k = draw(st.integers(1, 4))
    values = draw(st.lists(_EVIDENCE, min_size=2 * n * k, max_size=2 * n * k))
    a_pos = np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=k, max_size=k)))
    return np.array(values).reshape(n, k, 2), a_pos


class TestPredictBatchKernel:
    @settings(max_examples=200, deadline=None)
    @given(_evidence(), st.sampled_from([0.5, 0.3, 0.9]), st.sampled_from(["max", "sum", "top2"]))
    def test_equal_to_allocating_predict(self, drawn, threshold, agg):
        ev, a_pos = drawn
        a_neg = 1.0 - a_pos
        before = _snapshot(ev, a_pos, a_neg)
        mode = parse_aggregation(agg)
        got = predict_batch(ev, a_pos, a_neg, threshold, mode)
        want = _allocating_predict(ev, a_pos, threshold, mode)
        for g, w in zip((got.probabilities, got.uncertainties, got.uncertainty, got.labels), want):
            _same_bytes(g, w)
        assert _snapshot(ev, a_pos, a_neg) == before

    def test_empty_evidence_accepted(self):
        out = predict_batch(np.zeros((0, 3, 2)), np.full(3, 0.5), np.full(3, 0.5))
        assert out.probabilities.shape == (0, 3) and out.uncertainty.shape == (0,)

    def test_signed_zero_evidence_accepted(self):
        out = predict_batch(np.full((1, 2, 2), -0.0), np.full(2, 0.5), np.full(2, 0.5))
        np.testing.assert_array_equal(out.uncertainties, [[1.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5e-324, -1.0])
    def test_one_bad_value_rejected(self, bad):
        ev = np.ones((4, 3, 2))
        ev[2, 1, 0] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            predict_batch(ev, np.full(3, 0.5), np.full(3, 0.5))


def test_batch_evidence_allocates_one_array_per_layer():
    # 20k rows through the default 64-64-32 backbone: at the widest layer
    # the pass holds its input and its one output, two 20k x 64 float64
    # arrays; the allocating form held a third, the ReLU's own output
    n, width = 20000, 64
    mlp, head = init_model(8, 6, seed=0)
    x = np.random.default_rng(0).normal(size=(n, 8))
    tracemalloc.start()
    try:
        batch_evidence(mlp, head, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * width * 8
