"""Tests for the MLP backbone, evidence head, trainer, and checkpoints."""

import math
import tracemalloc

import numpy as np
import pytest

from evidkit import network
from evidkit.base_rates import CIWTable, base_rate_arrays
from evidkit.errors import ConfigError, DataFormatError, NonFiniteOutput, TrainingDiverged
from evidkit.losses import batch_nll_grad
from evidkit.network import (
    EvidenceHeadParams,
    MlpParams,
    TrainConfig,
    batch_evidence,
    batch_loss_grads,
    evidence_from_features,
    extract_features,
    finetune_head,
    init_head,
    init_model,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train_model,
)

UNIFORM_CIW = CIWTable.uniform(["a", "b"], weight=0.0)


def _mean_loss(mlp, head, x, y, prior):
    """The mean per-sample loss over a batch; the quantity the trainer descends."""
    return float(batch_nll_grad(batch_evidence(mlp, head, x), y, prior)[0].mean())


def _separable_data(n=160, dim=8, gap=6.0, seed=0):
    """Two orthogonal single-label clusters plus some label-free samples."""
    rng = np.random.default_rng(seed)
    x, y = [], []
    for _ in range(n):
        r = rng.random()
        if r < 0.25:
            center, labels = np.zeros(dim), [0, 0]
        elif r < 0.625:
            center, labels = np.eye(dim)[0] * gap, [1, 0]
        else:
            center, labels = np.eye(dim)[1] * gap, [0, 1]
        x.append(center + rng.normal(0, 1.0, dim))
        y.append(labels)
    return np.array(x), np.array(y, dtype=float)


class TestForward:
    def test_zero_parameters_give_zero_features(self):
        mlp = MlpParams([(np.zeros((3, 4)), np.zeros(3))])
        np.testing.assert_array_equal(extract_features(np.ones((1, 4)), mlp), np.zeros((1, 3)))

    def test_identity_layer_is_relu(self):
        mlp = MlpParams([(np.eye(3), np.zeros(3))])
        x = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(extract_features(x, mlp), [[1.0, 0.0, 0.5]])

    def test_forward_is_deterministic(self):
        mlp, head = init_model(6, 3, hidden=(8,), feature_dim=4, seed=12)
        x = np.random.default_rng(0).normal(size=(5, 6))
        first = batch_evidence(mlp, head, x)
        second = batch_evidence(mlp, head, x)
        np.testing.assert_array_equal(first, second)

    def test_single_and_batch_paths_agree(self):
        # a single sample is a one-row batch; BLAS may route one row and a
        # batch through different kernels, so agreement is to rounding
        mlp, head = init_model(6, 3, hidden=(8,), feature_dim=4, seed=12)
        x = np.random.default_rng(1).normal(size=(5, 6))
        batched = batch_evidence(mlp, head, x)
        for i in range(5):
            np.testing.assert_allclose(
                batch_evidence(mlp, head, x[i:i + 1]), batched[i:i + 1], rtol=1e-10, atol=0
            )

    def test_input_dim_mismatch_rejected(self):
        mlp, head = init_model(6, 3, seed=0)
        with pytest.raises(ValueError):
            extract_features(np.ones((1, 5)), mlp)
        with pytest.raises(ValueError):
            evidence_from_features(np.ones((1, 7)), head)

    def test_one_dimensional_input_rejected(self):
        mlp, head = init_model(6, 3, seed=0)
        with pytest.raises(ValueError, match=r"input shape \(6,\)"):
            extract_features(np.ones(6), mlp)
        with pytest.raises(ValueError, match=r"feature shape \(%d,\)" % head.dim_in):
            evidence_from_features(np.ones(head.dim_in), head)


class TestEvidenceHead:
    def test_zero_parameters_give_zero_evidence(self):
        head = EvidenceHeadParams(np.zeros((4, 6)), np.zeros(6))
        ev = evidence_from_features(np.ones((1, 4)), head)
        np.testing.assert_array_equal(ev, np.zeros((1, 3, 2)))

    def test_bias_only_head_returns_bias_pairs(self):
        head = EvidenceHeadParams(np.zeros((4, 4)), np.array([3.0, 1.0, 0.5, 0.0]))
        ev = evidence_from_features(np.zeros((1, 4)), head)
        np.testing.assert_array_equal(ev, [[[3.0, 1.0], [0.5, 0.0]]])

    def test_evidence_never_negative(self):
        """ReLU guarantee over a sweep of random parameters and inputs."""
        rng = np.random.default_rng(21)
        for _ in range(100):
            mlp, head = init_model(5, 3, hidden=(6,), feature_dim=4, seed=rng)
            x = rng.normal(scale=3.0, size=(100, 5))
            assert (batch_evidence(mlp, head, x) >= 0.0).all()

    def test_output_layout_is_pos_neg_pairs(self):
        # column 2k is the positive side of class k, column 2k+1 the negative
        w = np.zeros((2, 4))
        w[0, 0] = 1.0  # class 0 positive reads feature 0
        w[1, 3] = 1.0  # class 1 negative reads feature 1
        head = EvidenceHeadParams(w, np.zeros(4))
        ev = evidence_from_features(np.array([[2.0, 5.0]]), head)
        np.testing.assert_array_equal(ev, [[[2.0, 0.0], [0.0, 5.0]]])

    def test_odd_output_dim_rejected(self):
        with pytest.raises(ValueError):
            EvidenceHeadParams(np.zeros((4, 5)), np.zeros(5))


class TestInit:
    def test_same_seed_same_parameters(self):
        a_mlp, a_head = init_model(8, 4, seed=3)
        b_mlp, b_head = init_model(8, 4, seed=3)
        for (wa, ba), (wb, bb) in zip(a_mlp.layers, b_mlp.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba, bb)
        np.testing.assert_array_equal(a_head.weight, b_head.weight)
        np.testing.assert_array_equal(a_head.bias, b_head.bias)

    def test_bounds_scale_with_fan_in(self):
        mlp, head = init_model(16, 4, hidden=(64,), feature_dim=9, seed=5)
        first_w = mlp.layers[0][0]
        assert np.abs(first_w).max() <= 1.0 / math.sqrt(16)
        assert np.abs(head.weight).max() <= 1.0 / math.sqrt(9)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            init_model(0, 3)
        with pytest.raises(ConfigError):
            init_model(4, 3, hidden=(0,))
        with pytest.raises(ConfigError):
            init_head(0, 2)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.epochs == 60
        assert cfg.learning_rate == 0.1
        assert cfg.lr_decay_every == 30

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": -1},
            {"batch_size": 0},
            {"learning_rate": -0.1},
            {"learning_rate": float("nan")},
            {"lr_decay_ratio": 0.0},
            {"lr_decay_every": 0},
            {"weight_decay": -1e-4},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # ratio ** 2 overflows: Python raises OverflowError
            {"epochs": 3, "lr_decay_ratio": 1e200, "lr_decay_every": 1},
            # ratio ** 1 is finite, times the rate it is not
            {"epochs": 2, "learning_rate": 10.0, "lr_decay_ratio": 1e308, "lr_decay_every": 1},
        ],
    )
    def test_schedule_that_overflows_is_rejected(self, kwargs):
        with pytest.raises(ConfigError, match="--lr-decay-ratio .* --lr-decay-every .* --epochs"):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"epochs": 3, "lr_decay_ratio": 1e150, "lr_decay_every": 1},
            {"epochs": 2, "learning_rate": 0.0, "lr_decay_ratio": 1e308, "lr_decay_every": 1},
            {"epochs": 5, "lr_decay_ratio": 1e-200, "lr_decay_every": 2},
            {"epochs": 0, "lr_decay_ratio": 1e300, "lr_decay_every": 1},
        ],
    )
    def test_schedule_rates_are_the_formula(self, kwargs):
        cfg = TrainConfig(**kwargs)
        for epoch in range(cfg.epochs):
            rate = cfg.learning_rate * cfg.lr_decay_ratio ** (epoch // cfg.lr_decay_every)
            assert cfg.learning_rate_at(epoch) == rate and math.isfinite(rate)


class TestGradients:
    def test_end_to_end_gradcheck(self):
        """Backprop through head ReLU and backbone matches central differences."""
        rng = np.random.default_rng(17)
        mlp, head = init_model(4, 2, hidden=(), feature_dim=4, seed=rng)
        x = rng.normal(size=(3, 4))
        y = (rng.random((3, 2)) < 0.5).astype(float)
        a_pos = rng.uniform(0.2, 0.8, size=2)
        prior = 2.0 * np.column_stack([a_pos, 1.0 - a_pos])
        _, grads, g_head_w, g_head_b = batch_loss_grads(mlp, head, x, y, prior)

        h = 1e-6
        worst = 0.0

        def fd(param, analytic):
            nonlocal worst
            flat = param.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = _mean_loss(mlp, head, x, y, prior)
                flat[i] = orig - h
                down = _mean_loss(mlp, head, x, y, prior)
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                scale = max(abs(numeric), abs(analytic.ravel()[i]), 1e-8)
                worst = max(worst, abs(numeric - analytic.ravel()[i]) / scale)

        for (w, b), (gw, gb) in zip(mlp.layers, grads):
            fd(w, gw)
            fd(b, gb)
        fd(head.weight, g_head_w)
        fd(head.bias, g_head_b)
        assert worst < 1e-4

    def test_zero_gradient_step_is_pure_decay(self):
        param = np.array([2.0, -4.0, 0.5])
        out = sgd_step(param, np.zeros(3), lr=0.1, weight_decay=0.01)
        np.testing.assert_array_equal(out, param * (1.0 - 0.1 * 0.01))

    def test_step_never_mutates_input(self):
        param = np.ones(3)
        sgd_step(param, np.full(3, 5.0), lr=0.1, weight_decay=0.0)
        np.testing.assert_array_equal(param, np.ones(3))

    @pytest.mark.parametrize("backbone", [True, False])
    def test_out_buffers_receive_the_allocated_gradients(self, backbone):
        """With out=, the gradients land in (and are) the given views of one buffer."""
        rng = np.random.default_rng(5)
        mlp, head = init_model(6, 3, hidden=(7, 5), feature_dim=4, seed=rng)
        x = rng.normal(size=(11, 6))
        y = (rng.random((11, 3)) < 0.4).astype(float)
        a_pos = rng.uniform(0.2, 0.8, size=3)
        if not backbone:  # the head alone, trained on the backbone's features
            mlp, x = MlpParams([]), extract_features(x, mlp)
        args = (mlp, head, x, y, 2.0 * np.column_stack([a_pos, 1.0 - a_pos]))
        loss, grads, g_head_w, g_head_b = batch_loss_grads(*args)
        expected = [d for layer in grads for d in layer] + [g_head_w, g_head_b]

        flat = np.full(sum(d.size for d in expected), np.nan)
        views, offset = [], 0
        for d in expected:
            views.append(flat[offset:offset + d.size].reshape(d.shape))
            offset += d.size
        out_loss, out_grads, out_w, out_b = batch_loss_grads(*args, out=views)
        got = [d for layer in out_grads for d in layer] + [out_w, out_b]
        assert out_loss == loss
        assert len(got) == len(views) and all(g is v for g, v in zip(got, views))
        assert [g.tobytes() for g in got] == [d.tobytes() for d in expected]

    def test_in_place_step_matches_the_functional_form(self):
        rng = np.random.default_rng(6)
        param, grad = rng.normal(size=40), rng.normal(size=40)
        expected = param * (1.0 - 0.3 * 0.07) - 0.3 * grad
        assert sgd_step(param, grad, lr=0.3, weight_decay=0.07).tobytes() == expected.tobytes()
        assert sgd_step(param, grad, 0.3, 0.07, out=param) is param
        assert param.tobytes() == expected.tobytes()

    def test_zero_gradient_in_place_step_is_pure_decay(self):
        param = np.array([2.0, -4.0, 0.5])
        expected = param * (1.0 - 0.1 * 0.01)
        sgd_step(param, np.zeros(3), lr=0.1, weight_decay=0.01, out=param)
        assert param.tobytes() == expected.tobytes()


class TestLossGradsContract:
    """What ``batch_loss_grads`` checks and returns, with and without a backbone."""

    @staticmethod
    def _case(backbone, n=9, seed=0):
        rng = np.random.default_rng(seed)
        mlp, head = init_model(5, 3, hidden=(6,), feature_dim=4, seed=rng)
        x = rng.normal(size=(n, 5))
        if not backbone:
            mlp, x = MlpParams([]), extract_features(x, mlp)
        y = (rng.random((n, 3)) < 0.4).astype(float)
        a_pos = rng.uniform(0.2, 0.8, size=3)
        return mlp, head, x, y, 2.0 * np.column_stack([a_pos, 1.0 - a_pos])

    @pytest.mark.parametrize("backbone", [True, False])
    @pytest.mark.parametrize("n", [1, 5, 8, 9, 64, 130])
    def test_loss_is_the_mean_of_the_per_sample_losses(self, backbone, n):
        mlp, head, x, y, prior = self._case(backbone, n, seed=n)
        features = extract_features(x, mlp) if mlp.layers else x
        losses = batch_nll_grad(evidence_from_features(features, head), y, prior)[0]
        assert batch_loss_grads(mlp, head, x, y, prior)[0] == float(losses.mean())

    @pytest.mark.parametrize("backbone", [True, False])
    @pytest.mark.parametrize("fault", ["narrow", "wide", "1d", "empty", "3d"])
    def test_x_of_the_wrong_shape_raises(self, backbone, fault):
        mlp, head, x, y, prior = self._case(backbone)
        n, d = x.shape
        shape = {"narrow": (n, d - 1), "wide": (n, d + 1), "1d": (d,), "empty": (0, d),
                 "3d": (n, 1, d)}[fault]
        with pytest.raises(ValueError):
            batch_loss_grads(mlp, head, np.zeros(shape), y, prior)

    @pytest.mark.parametrize("backbone", [True, False])
    @pytest.mark.parametrize("shape", [(9, 2), (9, 4), (8, 3), (9,), (9, 3, 1)])
    def test_y_of_the_wrong_shape_raises(self, backbone, shape):
        mlp, head, x, _, prior = self._case(backbone)
        with pytest.raises(ValueError, match=r"expected evidence \(N, K, 2\)"):
            batch_loss_grads(mlp, head, x, np.zeros(shape), prior)

    @pytest.mark.parametrize("backbone", [True, False])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 1), (3,), (1, 3, 2)])
    def test_prior_of_the_wrong_shape_raises(self, backbone, shape):
        mlp, head, x, y, _ = self._case(backbone)
        with pytest.raises(ValueError, match=r"expected evidence \(N, K, 2\)"):
            batch_loss_grads(mlp, head, x, y, np.ones(shape))


class TestTrainer:
    def test_zero_learning_rate_keeps_initialization(self):
        x, y = _separable_data(n=40)
        cfg = TrainConfig(epochs=1, learning_rate=0.0, weight_decay=1e-4, seed=9)
        result = train_model(x, y, cfg, UNIFORM_CIW, hidden=(8,), feature_dim=4)
        ref_mlp, ref_head = init_model(8, 2, (8,), 4, np.random.default_rng(9))
        for (w, b), (rw, rb) in zip(result.mlp.layers, ref_mlp.layers):
            np.testing.assert_array_equal(w, rw)
            np.testing.assert_array_equal(b, rb)
        np.testing.assert_array_equal(result.head.weight, ref_head.weight)

    def test_zero_epochs_returns_initialization_and_no_losses(self):
        x, y = _separable_data(n=40)
        cfg = TrainConfig(epochs=0, seed=4)
        result = train_model(x, y, cfg, UNIFORM_CIW, hidden=(8,), feature_dim=4)
        assert result.epoch_losses == ()
        ref_mlp, _ = init_model(8, 2, (8,), 4, np.random.default_rng(4))
        np.testing.assert_array_equal(result.mlp.layers[0][0], ref_mlp.layers[0][0])

    def test_separable_problem_reaches_low_loss(self):
        # small set means few SGD steps per epoch, hence the long schedule
        x, y = _separable_data()
        cfg = TrainConfig(epochs=300, learning_rate=0.1, lr_decay_every=150, seed=0)
        result = train_model(x, y, cfg, UNIFORM_CIW)
        assert result.epoch_losses[-1] < 0.1

    def test_same_seed_reproduces_parameters_exactly(self):
        x, y = _separable_data(n=64)
        cfg = TrainConfig(epochs=3, seed=13)
        a = train_model(x, y, cfg, UNIFORM_CIW, hidden=(8,), feature_dim=4)
        b = train_model(x, y, cfg, UNIFORM_CIW, hidden=(8,), feature_dim=4)
        for (wa, ba_), (wb, bb) in zip(a.mlp.layers, b.mlp.layers):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ba_, bb)
        np.testing.assert_array_equal(a.head.weight, b.head.weight)
        np.testing.assert_array_equal(a.head.bias, b.head.bias)

    def test_divergence_reports_epoch_and_batch(self):
        # a head scaled to the float ceiling overflows the first forward
        # pass, so the non-finite loss must surface as a diagnostic
        mlp = MlpParams([(np.eye(4), np.zeros(4))])
        head = EvidenceHeadParams(np.full((4, 4), 1e308), np.zeros(4))
        x = np.full((8, 4), 10.0)
        y = np.zeros((8, 2))
        y[:, 0] = 1.0
        cfg = TrainConfig(epochs=1, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc_info:
            finetune_head(mlp, head, x, y, cfg, UNIFORM_CIW)
        assert exc_info.value.epoch == 0
        assert exc_info.value.batch == 0

    def test_non_finite_parameters_report_epoch_and_batch(self):
        # the first update overflows the parameters while its loss is finite
        x, y = _separable_data(n=40)
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=1e200, weight_decay=1e200)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc_info:
            train_model(x, y, cfg, UNIFORM_CIW, hidden=(8,), feature_dim=4)
        assert (exc_info.value.epoch, exc_info.value.batch) == (0, 0)
        assert math.isfinite(exc_info.value.loss)
        assert "parameters became non-finite" in str(exc_info.value)
        assert "non-finite loss" not in str(exc_info.value)

    def test_parameters_too_large_to_square_are_finite(self):
        """A head of 1e200 weights overflows theta @ theta; the fit does not
        call that divergence, and a zero rate leaves the head as it was."""
        x, y = _separable_data(n=40)
        mlp, head = init_model(8, 2, hidden=(8,), feature_dim=4, seed=0)
        head = EvidenceHeadParams(head.weight * 1e200, head.bias * 1e200)
        cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.0)
        result = finetune_head(mlp, head, x, y, cfg, UNIFORM_CIW)
        assert all(math.isfinite(v) for v in result.epoch_losses)
        assert result.head.weight.tobytes() == head.weight.tobytes()
        assert result.head.bias.tobytes() == head.bias.tobytes()

    @pytest.mark.parametrize("fit", ["train_model", "finetune_head"])
    def test_prior_is_built_once_per_fit(self, monkeypatch, fit):
        """Every step gets the same (K, 2) prior object: W * (a_pos, a_neg), W = 2."""
        priors = []

        def recording(evidence, y, prior):
            priors.append(prior)
            return batch_nll_grad(evidence, y, prior)

        monkeypatch.setattr(network, "batch_nll_grad", recording)
        x, y = _separable_data(n=40)
        ciw = CIWTable.from_pairs([("a", 0.3), ("b", -1.5)])
        cfg = TrainConfig(epochs=2, batch_size=16, seed=0)
        if fit == "train_model":
            train_model(x, y, cfg, ciw, hidden=(8,), feature_dim=4)
        else:
            mlp, head = init_model(8, 2, hidden=(8,), feature_dim=4, seed=0)
            finetune_head(mlp, head, x, y, cfg, ciw)
        assert len(priors) == 2 * 3
        assert all(p is priors[0] for p in priors)
        expected = 2 * np.column_stack(base_rate_arrays(ciw))
        assert priors[0].tobytes() == expected.tobytes() and priors[0].shape == (2, 2)

    def test_training_does_not_mutate_inputs(self):
        x, y = _separable_data(n=32)
        x_copy, y_copy = x.copy(), y.copy()
        train_model(x, y, TrainConfig(epochs=2, seed=0), UNIFORM_CIW,
                    hidden=(8,), feature_dim=4)
        np.testing.assert_array_equal(x, x_copy)
        np.testing.assert_array_equal(y, y_copy)

    def test_data_shape_errors(self):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError):
            train_model(np.zeros((0, 4)), np.zeros((0, 2)), cfg, UNIFORM_CIW)
        with pytest.raises(ValueError):
            train_model(np.zeros((4, 4)), np.zeros((4, 3)), cfg, UNIFORM_CIW)
        with pytest.raises(ValueError):
            train_model(np.zeros((4, 4)), np.zeros((5, 2)), cfg, UNIFORM_CIW)

    @pytest.mark.parametrize("label", [0.5, 0.9, -1.0, 2.0, np.nan])
    @pytest.mark.parametrize("fit", ["train_model", "finetune_head"])
    def test_labels_other_than_0_and_1_are_rejected(self, fit, label):
        """The loss takes the positive side only where y == 1, while its
        gradient weights the sides by y and 1 - y, so a fit takes hard
        labels alone; it checks them once, before any step."""
        x, y = _separable_data(n=40)
        y[5, 1] = label
        cfg = TrainConfig(epochs=0)
        with pytest.raises(ValueError, match=r"labels must be 0 or 1, but row 5, class 1 is"):
            if fit == "train_model":
                train_model(x, y, cfg, UNIFORM_CIW, hidden=(8,), feature_dim=4)
            else:
                finetune_head(*init_model(8, 2, (8,), 4, seed=0), x, y, cfg, UNIFORM_CIW)


class TestFreeze:
    def _pretrained(self):
        x, y = _separable_data(n=96, seed=2)
        cfg = TrainConfig(epochs=10, learning_rate=0.1, seed=2)
        result = train_model(x, y, cfg, UNIFORM_CIW, hidden=(8,), feature_dim=4)
        return x, y, result

    def test_backbone_is_bit_identical_after_finetune(self):
        x, y, pre = self._pretrained()
        snapshot = [(w.copy(), b.copy()) for w, b in pre.mlp.layers]
        head = init_head(4, 2, seed=33)
        cfg = TrainConfig(epochs=5, learning_rate=1e-3, seed=33)
        tuned = finetune_head(pre.mlp, head, x, y, cfg, UNIFORM_CIW)
        assert tuned.mlp is pre.mlp
        for (w, b), (sw, sb) in zip(pre.mlp.layers, snapshot):
            np.testing.assert_array_equal(w, sw)
            np.testing.assert_array_equal(b, sb)

    def test_zero_learning_rate_finetune_keeps_head(self):
        x, y, pre = self._pretrained()
        head = init_head(4, 2, seed=5)
        cfg = TrainConfig(epochs=3, learning_rate=0.0, seed=5)
        tuned = finetune_head(pre.mlp, head, x, y, cfg, UNIFORM_CIW)
        np.testing.assert_array_equal(tuned.head.weight, head.weight)
        np.testing.assert_array_equal(tuned.head.bias, head.bias)

    def test_finetune_never_mutates_the_given_head(self):
        x, y, pre = self._pretrained()
        head = init_head(4, 2, seed=6)
        w_copy = head.weight.copy()
        cfg = TrainConfig(epochs=3, learning_rate=1e-2, seed=6)
        tuned = finetune_head(pre.mlp, head, x, y, cfg, UNIFORM_CIW)
        np.testing.assert_array_equal(head.weight, w_copy)
        assert tuned.head is not head

    def test_finetune_improves_held_out_loss(self):
        x, y, pre = self._pretrained()
        x_val, y_val = _separable_data(n=64, seed=40)
        head = init_head(4, 2, seed=7)
        cfg = TrainConfig(epochs=15, learning_rate=1e-2, seed=7)
        tuned = finetune_head(pre.mlp, head, x, y, cfg, UNIFORM_CIW)
        prior = np.ones((2, 2))  # W = 2 times the uniform base rates of UNIFORM_CIW
        before = _mean_loss(pre.mlp, head, x_val, y_val, prior)
        after = _mean_loss(pre.mlp, tuned.head, x_val, y_val, prior)
        assert after < before

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_backbone_runs_once_per_block_of_rows(self, monkeypatch, epochs):
        """Every row goes through the frozen backbone once, whatever the epoch
        count, in blocks of the inference forward: the last takes the remainder."""
        mlp, head = init_model(8, 2, hidden=(64,), feature_dim=32, seed=8)
        block = network._block_rows(mlp.layers)
        n = 2 * block + 100
        rng = np.random.default_rng(8)
        x = rng.normal(size=(n, 8))
        y = (rng.random((n, 2)) < 0.4).astype(float)
        forwards = []
        relu_layers = network._relu_layers

        def counting(h, layers):
            if layers is mlp.layers:
                forwards.append(h.copy())
            return relu_layers(h, layers)

        monkeypatch.setattr(network, "_relu_layers", counting)
        cfg = TrainConfig(epochs=epochs, batch_size=256, seed=8)
        finetune_head(mlp, head, x, y, cfg, UNIFORM_CIW)
        assert [len(h) for h in forwards] == [block, block + 100]
        assert np.concatenate(forwards).tobytes() == x.tobytes()

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_backbone_that_overflows_names_the_row(self, epochs):
        """Finite weights whose features overflow float64 fail before any step,
        without a numpy warning, naming the first row whose features are not finite."""
        x, y = _separable_data(n=40)
        x[:7] = 0.0  # relu(0 @ W.T + 0) is 0 for these rows, whatever W is
        mlp, head = init_model(8, 2, hidden=(6, 6), feature_dim=4, seed=1)
        mlp = MlpParams([(np.abs(w) * 1e120, b * 0.0) for w, b in mlp.layers])
        x[7:] = np.abs(x[7:])
        cfg = TrainConfig(epochs=epochs, seed=3)
        with pytest.raises(NonFiniteOutput, match="backbone output for row 7 is not finite"):
            finetune_head(mlp, head, x, y, cfg, UNIFORM_CIW)

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_input_of_the_wrong_width_is_rejected(self, epochs):
        x, y, pre = self._pretrained()
        cfg = TrainConfig(epochs=epochs, seed=3)
        with pytest.raises(ValueError, match="does not match backbone input dim 8"):
            finetune_head(pre.mlp, init_head(4, 2, seed=3), x[:, :5], y, cfg, UNIFORM_CIW)

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_head_of_the_wrong_width_is_rejected(self, epochs):
        x, y, pre = self._pretrained()
        cfg = TrainConfig(epochs=epochs, seed=3)
        with pytest.raises(ValueError, match="does not match head input dim 5"):
            finetune_head(pre.mlp, init_head(5, 2, seed=3), x, y, cfg, UNIFORM_CIW)

    def test_features_are_computed_in_row_blocks(self):
        # 50k rows through the default 64-64-32 backbone. The refit holds
        # its 50k x 32 features, their shuffled copy in an epoch and the
        # shuffled labels; a quarter of one 50k x 64 array covers the rest.
        # One forward over all rows would hold two 50k x 64 layer outputs
        n, width, feature_dim = 50000, 64, 32
        mlp, head = init_model(8, 2, seed=0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 8))
        y = (rng.random((n, 2)) < 0.4).astype(float)
        tracemalloc.start()
        try:
            finetune_head(mlp, head, x, y, TrainConfig(epochs=1), UNIFORM_CIW)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * feature_dim * 8 + y.nbytes + n * width * 8 // 4


class TestCheckpoints:
    def test_round_trip_is_exact(self, tmp_path):
        mlp, head = init_model(7, 3, hidden=(9, 5), feature_dim=6, seed=77)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        mlp2, head2 = load_checkpoint(path)
        for (w, b), (w2, b2) in zip(mlp.layers, mlp2.layers):
            np.testing.assert_array_equal(w, w2)
            np.testing.assert_array_equal(b, b2)
        np.testing.assert_array_equal(head.weight, head2.weight)
        np.testing.assert_array_equal(head.bias, head2.bias)

    def test_round_trip_without_hidden_layers(self, tmp_path):
        mlp, head = init_model(5, 2, hidden=(), feature_dim=4, seed=1)
        path = tmp_path / "flat.ckpt"
        save_checkpoint(path, mlp, head)
        mlp2, _ = load_checkpoint(path)
        assert len(mlp2.layers) == 1
        np.testing.assert_array_equal(mlp2.layers[0][0], mlp.layers[0][0])

    def test_save_is_deterministic(self, tmp_path):
        mlp, head = init_model(4, 2, seed=3)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, mlp, head)
        save_checkpoint(b, mlp, head)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        mlp, head = init_model(4, 2, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        text = path.read_text().replace("v1", "v9", 1)
        path.write_text(text)
        with pytest.raises(DataFormatError, match="version"):
            load_checkpoint(path)

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_text("hello world\n")
        with pytest.raises(DataFormatError):
            load_checkpoint(path)

    def test_truncation_names_the_line(self, tmp_path):
        mlp, head = init_model(4, 2, hidden=(3,), feature_dim=3, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:8]) + "\n")
        with pytest.raises(DataFormatError, match="line 9"):
            load_checkpoint(path)

    def test_corrupt_value_names_the_line(self, tmp_path):
        mlp, head = init_model(4, 2, hidden=(), feature_dim=3, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        lines = path.read_text().splitlines()
        lines[6] = lines[6].replace(lines[6].split()[0], "not-a-number", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 7"):
            load_checkpoint(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.ckpt")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_line(self, tmp_path, value):
        mlp, head = init_model(4, 2, hidden=(3,), feature_dim=3, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        lines = path.read_text().splitlines()
        lines[7] = " ".join([value, *lines[7].split()[1:]])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 8: .*non-finite"):
            load_checkpoint(path)

    def test_content_after_the_last_parameter_names_the_line(self, tmp_path):
        mlp, head = init_model(4, 2, hidden=(), feature_dim=3, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        n_lines = len(path.read_text().splitlines())
        with open(path, "a") as fh:
            fh.write("\n  \ntrailing garbage\n")
        with pytest.raises(DataFormatError, match=f"line {n_lines + 3}: unexpected content"):
            load_checkpoint(path)

    def test_trailing_blank_lines_are_accepted(self, tmp_path):
        mlp, head = init_model(4, 2, hidden=(), feature_dim=3, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        with open(path, "a") as fh:
            fh.write("\n \t\n")
        _, head2 = load_checkpoint(path)
        np.testing.assert_array_equal(head2.weight, head.weight)

    def test_non_integer_shape_names_the_line(self, tmp_path):
        mlp, head = init_model(4, 2, hidden=(), feature_dim=3, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        lines = path.read_text().splitlines()
        assert lines[5].startswith("param backbone.0.weight")
        lines[5] = "param backbone.0.weight three 4"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 6: bad shape"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", ["input", "hidden", "features", "classes"])
    def test_zero_layer_size_rejected(self, tmp_path, header):
        mlp, head = init_model(4, 2, hidden=(3,), feature_dim=3, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        lines = [f"{header} 0" if line.split()[0] == header else line
                 for line in path.read_text().splitlines()]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="layer sizes"):
            load_checkpoint(path)

    def test_consistent_zero_width_layer_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_text(
            "#evidkit-model v1\ninput 2\nhidden -\nfeatures 0\nclasses 1\n"
            "param backbone.0.weight 0 2\nparam backbone.0.bias 1 0\n\n"
            "param head.weight 0 2\nparam head.bias 1 2\n0.0 0.0\n"
        )
        with pytest.raises(DataFormatError, match="layer sizes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header, value, line, message", [
        ("input", "four", 2, "bad header value"),
        ("hidden", "3,", 3, "bad header value"),
        ("features", "x", 4, "bad header value"),
        ("classes", "2.5", 5, "bad header value"),
        ("input", "0", 2, "layer sizes"),
        ("hidden", "3,0", 3, "layer sizes"),
        ("features", "0", 4, "layer sizes"),
        ("classes", "-1", 5, "layer sizes"),
    ])
    def test_bad_header_value_names_the_line(self, tmp_path, header, value, line, message):
        mlp, head = init_model(4, 2, hidden=(3,), feature_dim=3, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, mlp, head)
        rows = [f"{header} {value}" if row.split()[0] == header else row
                for row in path.read_text().splitlines()]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=f"line {line}: {message}"):
            load_checkpoint(path)

    def test_head_that_does_not_fit_the_backbone_is_refused(self, tmp_path):
        mlp, _ = init_model(4, 2, hidden=(3,), feature_dim=3, seed=3)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="head.weight"):
            save_checkpoint(path, mlp, init_head(5, 2, seed=3))
        assert not path.exists()


class TestEmptyBackbone:
    """``MlpParams([])`` is valid (the head-only fit builds one) but has no sizes."""

    def test_batch_evidence(self):
        with pytest.raises(ValueError, match="backbone is empty"):
            batch_evidence(MlpParams([]), init_head(3, 2), np.ones((2, 3)))

    def test_extract_features(self):
        with pytest.raises(ValueError, match="backbone is empty"):
            extract_features(np.ones((2, 3)), MlpParams([]))

    def test_finetune_head(self):
        x, y = _separable_data(n=20)
        with pytest.raises(ValueError, match="backbone is empty"):
            finetune_head(MlpParams([]), init_head(8, 2), x, y, TrainConfig(epochs=1),
                          UNIFORM_CIW)

    def test_save_checkpoint(self, tmp_path):
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="backbone is empty"):
            save_checkpoint(path, MlpParams([]), init_head(3, 2))
        assert not path.exists()

    def test_hidden(self):
        with pytest.raises(ValueError, match="backbone is empty"):
            MlpParams([]).hidden

    @pytest.mark.parametrize("hidden", [(), (1,), (5, 2)])
    def test_hidden_lists_the_hidden_widths(self, hidden):
        mlp, _ = init_model(4, 2, hidden=hidden, feature_dim=3, seed=0)
        assert mlp.hidden == list(hidden)
