"""The inference kernels against the allocating expressions they replaced.

`extract_features`, `evidence_from_features` and `predict_batch` add
biases, apply ReLUs and divide in place, in fresh arrays they own; the
forward runs in row blocks, and the max aggregation and `f1_normal`'s
"any label" fold over the class columns. The copies below keep the plain
allocating, whole-matrix, whole-row form of the same arithmetic: every
output must equal theirs byte for byte, no input or parameter may
change, and the forward pass must keep its allocation peak.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden_artifacts import PLATFORM, _platform

from evidkit import network
from evidkit.evaluation import _aggregate_rows, f1_normal, parse_aggregation, predict_batch
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
    # max folds over the columns in the kernel; the oracle reduces each row
    agg_u = uncs.max(axis=1) if agg.kind == "max" else _aggregate_rows(uncs, agg)
    return probs, uncs, agg_u, probs > threshold


def _whole_row_f1_normal(pred, true):
    pred_normal, true_normal = ~pred.any(axis=1), ~true.any(axis=1)
    tp = int(np.sum(pred_normal & true_normal))
    wrong = int(np.sum(pred_normal != true_normal))
    return 2.0 * tp / (2 * tp + wrong) if 2 * tp + wrong else 0.0


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


class TestAggregationFolds:
    """The max aggregation and f1_normal's "any label" against numpy's
    own reductions over the row, at every class count."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 9), st.integers(0, 7), st.integers(0, 2**16))
    def test_max_equal_to_row_max(self, n, k, seed):
        u = np.random.default_rng(seed).uniform(size=(n, k))
        if k == 0:
            with pytest.raises(ValueError, match="zero-size array"):
                u.max(axis=1)
            with pytest.raises(ValueError, match="zero-size array"):
                _aggregate_rows(u, parse_aggregation("max"))
            return
        _same_bytes(_aggregate_rows(u, parse_aggregation("max")), u.max(axis=1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 7), st.integers(0, 2**16),
           st.sampled_from([0.0, 0.2, 0.8]))
    def test_f1_normal_equal_to_row_any(self, n, k, seed, rate):
        rng = np.random.default_rng(seed)
        pred, true = rng.random((2, n, k)) < rate
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "f1_normal undefined", UserWarning)
            assert f1_normal(pred, true) == _whole_row_f1_normal(pred, true)

    def test_one_class_max_is_a_copy(self):
        out = predict_batch(np.ones((4, 1, 2)), np.full(1, 0.5), np.full(1, 0.5))
        assert not np.shares_memory(out.uncertainty, out.uncertainties)
        _same_bytes(out.uncertainty, out.uncertainties[:, 0].copy())


def _recorded_blas():
    return pytest.mark.skipif(
        _platform() != PLATFORM,
        reason=f"OpenBLAS kernel choice was checked on {PLATFORM}, this platform is "
               f"{_platform()}",
    )


# the README model, and one whose 20 x 10 head sets a block above 4096 rows
_BLOCK_MODELS = {
    "default": (init_model(8, 6, seed=0), 4096),
    "small_head": (init_model(8, 5, feature_dim=20, seed=1), 5243),
}
_ROWS = [1, 600, 2605, 4095, 4096, 4097, 8191, 8193, 20000]


@_recorded_blas()
@pytest.mark.parametrize("name, n", [
    *((name, n) for name in _BLOCK_MODELS for n in _ROWS),
    *(("small_head", n) for n in (2 * 5243 - 1, 2 * 5243, 2 * 5243 + 1)),
])
def test_blocked_forward_equals_whole_matrix(name, n):
    """Every block does at least 2**20 multiply-adds per layer, so it takes
    the dgemm kernel of the whole-matrix product and rounds the same."""
    (mlp, head), block = _BLOCK_MODELS[name]
    assert network._block_rows([*mlp.layers, (head.weight.T, head.bias)]) == block
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 8))
    x[rng.uniform(size=x.shape) < 0.1] = 0.0
    whole = _allocating_features(x, mlp)
    _same_bytes(extract_features(x, mlp), whole)
    _same_bytes(batch_evidence(mlp, head, x), _allocating_evidence(whole, head))


@pytest.mark.parametrize("n, sizes", [
    (0, [0]), (1, [1]), (8191, [8191]), (8192, [4096, 4096]),
    (20000, [4096, 4096, 4096, 7712]),
])
def test_forward_blocks(monkeypatch, n, sizes):
    """Blocks of 4096 rows for the default model; the last takes the remainder,
    and an input of one block is the loop's own output, not a copy."""
    mlp, head = init_model(8, 6, seed=0)
    x = np.random.default_rng(0).normal(size=(n, 8))
    blocks, outputs = [], []
    relu_layers = network._relu_layers

    def recording(h, layers):
        blocks.append(len(h))
        for out in relu_layers(h, layers):
            yield out
        outputs.append(out)

    monkeypatch.setattr(network, "_relu_layers", recording)
    ev = batch_evidence(mlp, head, x)
    assert blocks == sizes
    assert (ev.base is outputs[0]) == (len(sizes) == 1)


def test_batch_evidence_allocates_one_array_per_layer():
    # the default 64-64-32 backbone runs in blocks of 4096 rows, the last
    # taking the remainder (under 8192 rows): at the widest layer a block
    # holds its input and its one output, two block x 64 float64 arrays,
    # so the peak is the (n, 12) output plus a bound that does not grow with n
    block, width = 4096, 64
    mlp, head = init_model(8, 6, seed=0)
    for n in (20000, 40000):
        x = np.random.default_rng(0).normal(size=(n, 8))
        tracemalloc.start()
        try:
            ev = batch_evidence(mlp, head, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ev.nbytes + 1.25 * 2 * (2 * block) * width * 8, n
