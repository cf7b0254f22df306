"""The flat-vector trainer against the per-array trainer it replaced.

The retired implementation is kept below as a test oracle: it rebuilt
(and so revalidated) the parameter dataclasses after every step, ran
one allocating SGD step per weight and bias, computed the full backbone
backward even when only the head was trained, and built the loss
gradient column by column. Its forward pass kept every pre-activation z
and masked the backward pass with z > 0, where the trainer takes the
mask from the activation relu(z). Every returned array must match it bit
for bit, and every epoch loss exactly.

Each drawn problem also draws the SGD recipe (batch size and weight
decay), set as the ``network`` constants that both trainers read. Both step
at ``config.learning_rate`` in every epoch.

The head-only refit oracle computes the backbone features of all rows
once, with its own forward pass, and fits the head on them as a model
with no backbone layers, as ``finetune_head`` does. The trainer computes
them in row blocks; every drawn problem fits in one block.

The oracle's batches gather their rows by index, as the trainer's do. With
``gather_per_epoch`` the oracle instead gathers each epoch's shuffled rows
once and slices its batches from that copy, as the trainer did before; both
feeds must give the same bits. The last tests bound the memory of a refit:
it holds no shuffled copy of its features.
"""

import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evidkit.base_rates import CIWTable, base_rate_arrays
from evidkit import network
from evidkit.errors import TrainingDiverged
from evidkit.losses import batch_nll_grad
from evidkit.network import (
    DEFAULT_HIDDEN,
    EvidenceHeadParams,
    MlpParams,
    TrainConfig,
    batch_loss_grads,
    finetune_head,
    init_head,
    init_model,
    train_model,
)
from evidkit.opinions import DEFAULT_PRIOR_WEIGHT


# -- the retired implementation ------------------------------------------


def _forward_cached(mlp, head, x):
    acts = [x]
    zs = []
    h = x
    for w, b in mlp.layers:
        z = h @ w.T
        z += b
        h = np.maximum(z, 0.0)
        zs.append(z)
        acts.append(h)
    z_head = h @ head.weight
    z_head += head.bias
    evidence = np.maximum(z_head, 0.0)
    return acts, zs, z_head, evidence


def _sgd_step(param, grad, lr, weight_decay):
    return param * (1.0 - lr * weight_decay) - lr * grad


def _retired_batch_nll_grad(evidence, y, a_pos, a_neg):
    alpha = np.empty_like(evidence)
    alpha[..., 0] = evidence[..., 0] + a_pos * DEFAULT_PRIOR_WEIGHT
    alpha[..., 1] = evidence[..., 1] + a_neg * DEFAULT_PRIOR_WEIGHT
    s = alpha.sum(axis=-1)
    log_labeled = np.where(y == 1, np.log(alpha[..., 0]), np.log(alpha[..., 1]))
    losses = (np.log(s) - log_labeled).sum(axis=-1)

    grad = np.empty_like(alpha)
    inv_s = 1.0 / s
    grad[..., 0] = inv_s - y / alpha[..., 0]
    grad[..., 1] = inv_s - (1.0 - y) / alpha[..., 1]
    return losses, grad


def _retired_batch_loss_grads(mlp, head, x, y, a_pos, a_neg):
    n = x.shape[0]
    acts, zs, z_head, evidence = _forward_cached(mlp, head, x)
    losses, d_evidence = _retired_batch_nll_grad(
        evidence.reshape(n, head.num_classes, 2), y, a_pos, a_neg
    )
    loss = float(losses.mean())

    d_ev = d_evidence.reshape(n, -1) / n
    dz_head = d_ev * (z_head > 0.0)
    g_head_w = acts[-1].T @ dz_head
    g_head_b = dz_head.sum(axis=0)

    dh = dz_head @ head.weight.T
    grads = []
    for (w, _), z, a_prev in zip(reversed(mlp.layers), reversed(zs), reversed(acts[:-1])):
        dz = dh * (z > 0.0)
        grads.append((dz.T @ a_prev, dz.sum(axis=0)))
        dh = dz @ w
    grads.reverse()
    return loss, grads, g_head_w, g_head_b


def _retired_fit(mlp, head, x, y, a_pos, a_neg, config, rng, update_backbone,
                 gather_per_epoch=False):
    """The retired step loop. Each batch gathers its rows of x and y by index;
    with ``gather_per_epoch`` each epoch gathers all of its shuffled rows
    once and the batches are contiguous slices of that copy instead."""
    n = x.shape[0]
    lr = config.learning_rate
    epoch_losses = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        if gather_per_epoch:
            xs, ys = x[order], y[order]
        total = 0.0
        for batch_idx, start in enumerate(range(0, n, network.BATCH_SIZE)):
            rows = slice(start, start + network.BATCH_SIZE)
            if gather_per_epoch:
                xb, yb = xs[rows], ys[rows]
            else:
                xb, yb = x[order[rows]], y[order[rows]]
            loss, grads, g_head_w, g_head_b = _retired_batch_loss_grads(
                mlp, head, xb, yb, a_pos, a_neg
            )
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, batch_idx, loss)
            total += loss * len(xb)
            if update_backbone:
                mlp = MlpParams([
                    (
                        _sgd_step(w, gw, lr, network.WEIGHT_DECAY),
                        _sgd_step(b, gb, lr, network.WEIGHT_DECAY),
                    )
                    for (w, b), (gw, gb) in zip(mlp.layers, grads)
                ])
            head = EvidenceHeadParams(
                _sgd_step(head.weight, g_head_w, lr, network.WEIGHT_DECAY),
                _sgd_step(head.bias, g_head_b, lr, network.WEIGHT_DECAY),
            )
        epoch_losses.append(total / n)
    return mlp, head, epoch_losses


def _retired_train_model(x, y, config, ciw, hidden, feature_dim, gather_per_epoch=False):
    a_pos, a_neg = base_rate_arrays(ciw)
    rng = np.random.default_rng(config.seed)
    mlp, head = init_model(x.shape[1], len(ciw), hidden, feature_dim, rng)
    return _retired_fit(mlp, head, x, y, a_pos, a_neg, config, rng, True, gather_per_epoch)


def _retired_finetune_head(mlp, head, x, y, config, ciw, gather_per_epoch=False):
    a_pos, a_neg = base_rate_arrays(ciw)
    rng = np.random.default_rng(config.seed)
    head = EvidenceHeadParams(head.weight.copy(), head.bias.copy())
    features = _forward_cached(mlp, head, x)[0][-1]
    return _retired_fit(MlpParams([]), head, features, y, a_pos, a_neg, config, rng, False,
                        gather_per_epoch)


# -- helpers -------------------------------------------------------------


def _arrays(mlp, head):
    return [a for layer in mlp.layers for a in layer] + [head.weight, head.bias]


def _assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _problem(n, dim, k, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 2.0, size=(n, dim))
    y = (rng.random((n, k)) < 0.4).astype(np.float64)
    weights = rng.uniform(-2.0, 2.0, size=k)
    ciw = CIWTable.from_pairs([(f"c{i}", float(w)) for i, w in enumerate(weights)])
    return x, y, ciw


fits = st.fixed_dictionaries({
    "hidden": st.sampled_from([(), (5,), (6, 4), DEFAULT_HIDDEN]),
    "feature_dim": st.sampled_from([3, 8]),
    "n": st.integers(1, 90),
    "batch_size": st.sampled_from([1, 7, 16, 64, 100]),
    "epochs": st.integers(0, 3),
    "learning_rate": st.sampled_from([0.0, 1e-3, 0.1, 0.5]),
    "weight_decay": st.sampled_from([0.0, 1e-4, 0.05]),
    "dim": st.integers(1, 6),
    "k": st.integers(1, 3),
    "seed": st.integers(0, 2**16),
})


def _config(p):
    return TrainConfig(epochs=p["epochs"], learning_rate=p["learning_rate"], seed=p["seed"])


def _recipe(p):
    """The drawn SGD recipe, set as the module constants both trainers read."""
    return mock.patch.multiple(network, BATCH_SIZE=p["batch_size"],
                               WEIGHT_DECAY=p["weight_decay"])


# -- equivalence -----------------------------------------------------------


class TestSameBitsAsTheRetiredTrainer:
    @settings(max_examples=60, deadline=None)
    @given(fits, st.booleans())
    def test_train_model(self, p, gather_per_epoch):
        x, y, ciw = _problem(p["n"], p["dim"], p["k"], p["seed"])
        cfg = _config(p)
        with _recipe(p):
            got = train_model(x, y, cfg, ciw, hidden=p["hidden"], feature_dim=p["feature_dim"])
            mlp, head, losses = _retired_train_model(x, y, cfg, ciw, p["hidden"],
                                                     p["feature_dim"], gather_per_epoch)
        _assert_bytes_equal(_arrays(got.mlp, got.head), _arrays(mlp, head))
        assert got.epoch_losses == tuple(losses)

    @settings(max_examples=60, deadline=None)
    @given(fits, st.booleans())
    def test_finetune_head(self, p, gather_per_epoch):
        x, y, ciw = _problem(p["n"], p["dim"], p["k"], p["seed"])
        cfg = _config(p)
        mlp, _ = init_model(p["dim"], p["k"], p["hidden"], p["feature_dim"], p["seed"] + 1)
        head = init_head(p["feature_dim"], p["k"], p["seed"] + 2)
        with _recipe(p):
            got = finetune_head(mlp, head, x, y, cfg, ciw)
            _, want_head, losses = _retired_finetune_head(mlp, head, x, y, cfg, ciw,
                                                          gather_per_epoch)
        assert got.mlp is mlp
        _assert_bytes_equal([got.head.weight, got.head.bias],
                            [want_head.weight, want_head.bias])
        assert got.epoch_losses == tuple(losses)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 4),
        st.sampled_from([0.0, 1e-300, 1.0, 1e150, 3e150]),
        st.integers(0, 2**16),
    )
    def test_batch_nll_grad(self, n, k, scale, seed):
        rng = np.random.default_rng(seed)
        evidence = rng.random((n, k, 2)) * scale
        evidence[rng.random((n, k, 2)) < 0.3] = 0.0  # exact zeros, as ReLU emits
        y = (rng.random((n, k)) < 0.5).astype(np.float64)
        a_pos = rng.uniform(0.05, 0.95, size=k)
        a_neg = 1.0 - a_pos
        got = batch_nll_grad(evidence, y, DEFAULT_PRIOR_WEIGHT * np.column_stack([a_pos, a_neg]))
        want = _retired_batch_nll_grad(evidence, y, a_pos, a_neg)
        _assert_bytes_equal(list(got), list(want))


# -- ReLU masks at exactly zero ----------------------------------------------


def _zero_preactivation_model(hidden, seed):
    """A model with exact-zero pre-activations in every layer and the head.

    Every other weight row (head column) is zeroed and its bias is 0.0
    or -0.0, so those units see z = h @ 0 + (+-0.0) for every input.
    That z is +0.0 either way: a matmul sums from +0.0, and
    0.0 + -0.0 == +0.0. So the forward pass never yields z = -0.0, and
    ``test_relu_keeps_the_sign_of_z_for_every_float`` covers -0.0 itself.
    """
    rng = np.random.default_rng(seed)
    mlp, head = init_model(5, 3, hidden, 4, seed)
    layers = []
    for w, b in mlp.layers:
        w, b = w.copy(), b.copy()
        w[::2] = 0.0
        b[::2] = rng.choice([0.0, -0.0], size=b[::2].shape)
        layers.append((w, b))
    weight, bias = head.weight.copy(), head.bias.copy()
    weight[:, ::2] = 0.0
    bias[::2] = rng.choice([0.0, -0.0], size=bias[::2].shape)
    return MlpParams(layers), EvidenceHeadParams(weight, bias)


@pytest.mark.parametrize("backbone", [True, False])
@pytest.mark.parametrize("hidden", [(), (6,), (7, 5)])
@pytest.mark.parametrize("seed", range(4))
def test_activation_masks_match_the_z_masks(backbone, hidden, seed):
    mlp, head = _zero_preactivation_model(hidden, seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.normal(size=(17, 5))
    x[::4] = 0.0  # whole rows of exact zeros, so live units see z = b too
    x[1::4] = -0.0
    y = (rng.random((17, 3)) < 0.4).astype(np.float64)
    a_pos = rng.uniform(0.2, 0.8, size=3)

    acts, zs, z_head, _ = _forward_cached(mlp, head, x)
    assert all((z == 0.0).any() for z in [*zs, z_head])

    # without the backbone, the head is trained on the backbone's features
    trained, inputs = (mlp, x) if backbone else (MlpParams([]), acts[-1])
    got_loss, got_grads, got_w, got_b = batch_loss_grads(
        trained, head, inputs, y, DEFAULT_PRIOR_WEIGHT * np.column_stack([a_pos, 1.0 - a_pos])
    )
    loss, grads, g_head_w, g_head_b = _retired_batch_loss_grads(
        mlp, head, x, y, a_pos, 1.0 - a_pos
    )
    assert got_loss == loss
    want = [g for pair in grads for g in pair] if backbone else []
    _assert_bytes_equal([g for pair in got_grads for g in pair] + [got_w, got_b],
                        want + [g_head_w, g_head_b])


def test_relu_keeps_the_sign_of_z_for_every_float():
    """max(z, 0) > 0 is z > 0 for NaN, signed zeros, infinities and subnormals."""
    z = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf,
                  5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308])
    h = z.copy()
    np.maximum(h, 0.0, out=h)
    np.testing.assert_array_equal(h > 0.0, z > 0.0)


# -- inputs and outputs are never shared ------------------------------------


class TestNoAliasing:
    def test_finetune_leaves_its_inputs_unchanged(self):
        x, y, ciw = _problem(40, 5, 2, seed=3)
        mlp, head = init_model(5, 2, (6,), 4, seed=1)
        before = [a.copy() for a in _arrays(mlp, head)]
        finetune_head(mlp, head, x, y, TrainConfig(epochs=3, learning_rate=0.5, seed=1), ciw)
        _assert_bytes_equal(_arrays(mlp, head), before)

    def test_results_survive_a_second_fit(self):
        x, y, ciw = _problem(40, 5, 2, seed=3)
        cfg = TrainConfig(epochs=2, learning_rate=0.2, seed=4)
        first = train_model(x, y, cfg, ciw, hidden=(6,), feature_dim=4)
        snapshot = [a.copy() for a in _arrays(first.mlp, first.head)]
        tuned = finetune_head(first.mlp, first.head, x, y, cfg, ciw)
        train_model(x, y, cfg, ciw, hidden=(6,), feature_dim=4)
        finetune_head(first.mlp, tuned.head, x, y, cfg, ciw)
        _assert_bytes_equal(_arrays(first.mlp, first.head), snapshot)

    def test_returned_arrays_own_their_memory(self):
        x, y, ciw = _problem(40, 5, 2, seed=3)
        cfg = TrainConfig(epochs=1, seed=5)
        result = train_model(x, y, cfg, ciw, hidden=(6,), feature_dim=4)
        arrays = _arrays(result.mlp, result.head)
        assert all(a.base is None for a in arrays)
        tuned = finetune_head(result.mlp, result.head, x, y, cfg, ciw)
        assert tuned.head.weight.base is None and tuned.head.bias.base is None



# -- the feed: batches by index, no shuffled copy of the data ------------------


@pytest.mark.parametrize("gather_per_epoch", [False, True])
def test_a_default_sized_fit_matches_both_feeds(gather_per_epoch):
    x, y, ciw = _problem(1000, 8, 6, seed=11)
    cfg = TrainConfig(epochs=3, learning_rate=0.05, seed=2)
    got = train_model(x, y, cfg, ciw)
    mlp, head, losses = _retired_train_model(x, y, cfg, ciw, DEFAULT_HIDDEN, got.mlp.dim_out,
                                             gather_per_epoch)
    _assert_bytes_equal(_arrays(got.mlp, got.head), _arrays(mlp, head))
    assert got.epoch_losses == tuple(losses)
    fresh = init_head(got.mlp.dim_out, 6, seed=3)
    tuned = finetune_head(got.mlp, fresh, x, y, cfg, ciw)
    _, want_head, losses = _retired_finetune_head(got.mlp, fresh, x, y, cfg, ciw,
                                                  gather_per_epoch)
    _assert_bytes_equal([tuned.head.weight, tuned.head.bias], [want_head.weight, want_head.bias])
    assert tuned.epoch_losses == tuple(losses)


def test_a_refit_holds_no_second_copy_of_its_features():
    # Beyond the features, a refit holds one block of the blocked forward (two
    # 64-wide layer outputs of fewer than 2 * _MIN_BLOCK_ROWS rows, 8 MiB) and
    # a few bytes a row of checks; a shuffled copy of the features would add
    # features.nbytes, 15 MB at 60k rows.
    bound = 2 * (2 * network._MIN_BLOCK_ROWS) * 64 * 8 + 2 * 2**20
    mlp, head = init_model(8, 6, DEFAULT_HIDDEN, 32, seed=1)
    cfg = TrainConfig(epochs=1, learning_rate=0.001, seed=2)
    for n in (20_000, 60_000):
        x, y, ciw = _problem(n, 8, 6, seed=4)
        features_nbytes = n * mlp.dim_out * 8
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            finetune_head(mlp, head, x, y, cfg, ciw)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak - features_nbytes < bound, (n, peak, features_nbytes)
