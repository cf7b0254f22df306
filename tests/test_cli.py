"""End-to-end tests of the command-line pipeline, run in process."""

import os
import subprocess

import numpy as np
import pytest
import yaml

from evidkit import datasets, network
from evidkit.cli import (
    CHECKPOINT_FILENAME,
    CIW_FILENAME,
    EVAL_REPORT_FILENAME,
    OOD_REPORT_FILENAME,
    OOD_SCORES_FILENAME,
    TRAIN_LOG_FILENAME,
    main,
)
from evidkit.datasets import (
    CACHE_SUFFIX,
    TRAIN_FILENAME,
    VAL_FILENAME,
    DatasetSplit,
    SampleTable,
    load_ciw_config,
    load_dataset,
    samples_to_arrays,
    save_ciw_config,
    save_dataset,
)
from evidkit.base_rates import CIWTable
from evidkit.network import (
    EvidenceHeadParams,
    MlpParams,
    TrainConfig,
    init_head,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train_model,
)

TINY_GEN = ["--known", "3", "--unknown", "1", "--dim", "4",
            "--train-samples", "80", "--val-samples", "40", "--seed", "3"]
TINY_TRAIN = ["--epochs", "3"]


def _generate(path, extra=()):
    assert main(["generate", "--out", str(path), *TINY_GEN, *extra]) == 0
    return path


def _train(data, out, extra=()):
    assert main(["train", "--data", str(data), "--ciw", str(data / CIW_FILENAME),
                 "--out", str(out), *TINY_TRAIN, *extra]) == 0
    return out / CHECKPOINT_FILENAME


def _checkpoint(data, out):
    """A checkpoint for the tests that only read one: the library trains it
    for TINY_TRAIN's 3 epochs with one hidden layer of 8 and 4 features
    (`train` builds only the larger default model), so that writing, parsing
    and changing it stays cheap."""
    split = load_dataset(data)
    _, x, y, _ = samples_to_arrays(split.train, split.k_known, split.dim)
    result = train_model(x, y, TrainConfig(epochs=3), load_ciw_config(data / CIW_FILENAME),
                         hidden=(8,), feature_dim=4)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / CHECKPOINT_FILENAME, result.mlp, result.head)
    return out / CHECKPOINT_FILENAME


class TestGenerate:
    def test_writes_dataset_and_ciw(self, tmp_path, capsys):
        d = _generate(tmp_path / "data")
        for name in (TRAIN_FILENAME, VAL_FILENAME, CIW_FILENAME):
            assert (d / name).is_file()
        out = capsys.readouterr().out
        assert "3 known" not in out  # names, not counts, are listed
        assert "known_01" in out and "unknown_01" in out

    def test_rerun_is_byte_identical(self, tmp_path):
        a = _generate(tmp_path / "a")
        b = _generate(tmp_path / "b")
        for name in (TRAIN_FILENAME, VAL_FILENAME, CIW_FILENAME):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_creates_nested_output_directory(self, tmp_path):
        d = _generate(tmp_path / "a" / "b" / "c")
        assert (d / TRAIN_FILENAME).is_file()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "d"), "--known", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--noise", "--unknown-scale"])
    def test_overflowing_geometry_exits_2_before_writing(self, tmp_path, capsys, monkeypatch,
                                                        flag):
        spawned, real = [], subprocess.Popen
        monkeypatch.setattr(subprocess, "Popen",
                            lambda *a, **k: spawned.append(real(*a, **k)) or spawned[-1])
        for processes in (1, 2):
            if processes == 2:
                # blocks of 16 rows, handed to a second process as they are
                # drawn: the noise overflows in the first block, the unknown
                # prototypes in the first validation block, after 5 train blocks
                monkeypatch.setattr(datasets, "_TWO_PROCESS_MIN_VALUES", 0)
                monkeypatch.setattr(datasets, "_WRITE_BLOCK_ROWS", 16)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            out = tmp_path / "a" / "d"
            assert main(["generate", "--out", str(out), *TINY_GEN, flag, "1e308"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "overflow float64" in err
            assert "Warning" not in err
            assert list(tmp_path.iterdir()) == []
            assert len(spawned) == processes - 1

    def test_unallocatable_size_exits_2_before_writing(self, tmp_path, capsys, monkeypatch):
        # stands in for the multi-TiB prototype draw of a huge --dim
        def no_memory(rng, cfg):
            raise MemoryError

        monkeypatch.setattr(datasets, "_known_prototypes", no_memory)
        out = tmp_path / "d"
        argv = ["generate", "--out", str(out), *TINY_GEN, "--dim", "100000000000"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "does not fit in memory" in err
        assert "dim 100000000000" in err and "train" in err and "validation rows" in err
        assert not out.exists()

    @pytest.mark.parametrize("size", [
        # 8 EB of features, past a 57-bit address space as well as a 48-bit one
        pytest.param(["--train-samples", "1000000000000000", "--dim", "1000"], id="rows"),
        # a byte count past what a signed 64-bit size can hold
        pytest.param(["--train-samples", "1000000000000000000"], id="bytes"),
        # a dim whose byte count at the default row counts passes it too; numpy
        # refused it in the prototype draw, before the features were allocated
        pytest.param(["--dim", "1000000000000000000"], id="dim-bytes"),
        # a dim past the largest dimension numpy takes
        pytest.param(["--dim", "10000000000000000000"], id="dim-past-numpy"),
    ])
    def test_unallocatable_row_count_exits_2_before_drawing(self, tmp_path, capsys, size):
        # the features of every row are allocated before anything is drawn
        out = tmp_path / "d"
        assert main(["generate", "--out", str(out), *size]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "does not fit in memory" in err
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_and_log(self, tmp_path):
        d = _generate(tmp_path / "data")
        ckpt = _train(d, tmp_path / "run")
        mlp, head = load_checkpoint(ckpt)
        assert mlp.dim_in == 4 and head.num_classes == 3
        log = (tmp_path / "run" / TRAIN_LOG_FILENAME).read_text()
        assert "epoch_losses" in log and "final_loss" in log

    def test_rerun_is_byte_identical(self, tmp_path):
        d = _generate(tmp_path / "data")
        a = _train(d, tmp_path / "a")
        b = _train(d, tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a" / TRAIN_LOG_FILENAME).read_bytes() == (
            tmp_path / "b" / TRAIN_LOG_FILENAME
        ).read_bytes()

    def test_zero_epochs_saves_the_seeded_initialization(self, tmp_path, capsys):
        d = _generate(tmp_path / "data")
        ckpt = _train(d, tmp_path / "run", extra=["--epochs", "0", "--seed", "5"])
        assert "seeded initialization" in capsys.readouterr().out
        mlp, head = init_model(4, 3, seed=np.random.default_rng(5))
        expected = tmp_path / "expected.ckpt"
        save_checkpoint(expected, mlp, head)
        assert ckpt.read_bytes() == expected.read_bytes()

    def test_missing_dataset_exits_3(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nowhere"),
                     "--ciw", str(tmp_path / "nowhere" / CIW_FILENAME),
                     "--out", str(tmp_path / "run")])
        assert code == 3

    def test_mismatched_ciw_exits_2(self, tmp_path, capsys):
        d = _generate(tmp_path / "data")
        bad = tmp_path / "bad.tsv"
        save_ciw_config(CIWTable.uniform(["other_a", "other_b"], 0.5), bad)
        code = main(["train", "--data", str(d), "--ciw", str(bad),
                     "--out", str(tmp_path / "run"), *TINY_TRAIN])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_saturating_ciw_weight_exits_2(self, tmp_path, capsys):
        d = _generate(tmp_path / "data")
        extreme = tmp_path / "extreme.tsv"
        save_ciw_config(CIWTable.uniform(["known_01", "known_02", "known_03"], 1e3), extreme)
        code = main(["train", "--data", str(d), "--ciw", str(extreme),
                     "--out", str(tmp_path / "run"), *TINY_TRAIN])
        assert code == 2
        assert "falls outside (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        pytest.param(["--epochs", "-1"], id="flags1"),
        pytest.param(["--lr", "-0.5"], id="flags2"),
    ])
    def test_invalid_flags_exit_2(self, tmp_path, flags):
        d = _generate(tmp_path / "data")
        code = main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                     "--out", str(tmp_path / "run"), *flags])
        assert code == 2

    def test_unallocatable_model_exits_2_before_writing(self, tmp_path, capsys, monkeypatch):
        # stands in for the multi-TiB weight draw of a huge layer
        def no_memory(*args):
            raise MemoryError

        d = _generate(tmp_path / "data")
        monkeypatch.setattr(network, "init_model", no_memory)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "does not fit in memory" in err
        assert "hidden sizes (64, 64) and feature dim 32" in err
        assert not out.exists()

    def test_init_from_requires_freeze(self, tmp_path, capsys):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "base")
        code = main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                     "--out", str(tmp_path / "run"), "--init-from", str(ckpt)])
        assert code == 2
        assert "--freeze-backbone" in capsys.readouterr().err

    def test_freeze_requires_init_from(self, tmp_path, capsys):
        d = _generate(tmp_path / "data")
        code = main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                     "--out", str(tmp_path / "run"), "--freeze-backbone"])
        assert code == 2
        assert "--init-from" in capsys.readouterr().err

    def test_freeze_keeps_the_backbone(self, tmp_path):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "base")
        tuned = tmp_path / "tuned"
        assert main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                     "--out", str(tuned), "--freeze-backbone",
                     "--init-from", str(ckpt), "--epochs", "2"]) == 0
        base_mlp, base_head = load_checkpoint(ckpt)
        tuned_mlp, tuned_head = load_checkpoint(tuned / CHECKPOINT_FILENAME)
        for (w0, b0), (w1, b1) in zip(base_mlp.layers, tuned_mlp.layers):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)
        assert not np.array_equal(base_head.weight, tuned_head.weight)

    def test_refit_log_records_the_checkpoint_architecture(self, tmp_path):
        """A frozen refit logs the loaded backbone's sizes, not the default ones."""
        d = _generate(tmp_path / "data")
        ckpt = tmp_path / "base.ckpt"
        save_checkpoint(ckpt, *init_model(4, 3, hidden=(8, 5), feature_dim=4, seed=0))
        tuned = tmp_path / "tuned"
        assert main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                     "--out", str(tuned), "--freeze-backbone",
                     "--init-from", str(ckpt), "--epochs", "1"]) == 0
        config = yaml.safe_load((tuned / TRAIN_LOG_FILENAME).read_text())["config"]
        assert config["hidden"] == [8, 5] and config["feature_dim"] == 4

    def test_divergence_exits_4(self, tmp_path, capsys):
        """The first step overshoots to huge weights and the second step's loss
        is NaN. Not under np.errstate: the overflow the fit reports as an error
        prints no numpy warning, so stderr holds the error line alone."""
        d = _generate(tmp_path / "data")
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                     "--out", str(out), *TINY_TRAIN, "--lr", "1e300"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite loss nan at epoch 0, batch 1; ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_diverged_parameters_exit_4(self, tmp_path, capsys, monkeypatch):
        # the first update overflows the parameters with a finite loss only
        # at a weight decay far above the fixed one, so the test raises it
        monkeypatch.setattr(network, "WEIGHT_DECAY", 1e200)
        d = _generate(tmp_path / "data")
        with np.errstate(all="ignore"):
            code = main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                         "--out", str(tmp_path / "run"), *TINY_TRAIN, "--lr", "1e200"])
        assert code == 4
        err = capsys.readouterr().err
        assert "parameters became non-finite" in err and "epoch 0, batch 0" in err
        assert "non-finite loss" not in err

    def test_diverged_head_in_frozen_refit_exits_4(self, tmp_path, capsys, monkeypatch):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "base")
        monkeypatch.setattr(network, "WEIGHT_DECAY", 10.0)
        with np.errstate(all="ignore"):
            code = main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                         "--out", str(tmp_path / "tuned"), "--freeze-backbone",
                         "--init-from", str(ckpt), "--epochs", "1", "--lr", "1e308"])
        assert code == 4
        err = capsys.readouterr().err
        assert "parameters became non-finite" in err and "epoch 0, batch 0" in err
        assert "non-finite loss" not in err


def _oracle_fixture(tmp_path):
    """Dataset plus a handcrafted checkpoint that classifies it perfectly.

    The backbone stacks (relu(x), relu(-x)) so the head can realize any
    linear score v.x - c; each class k uses the direction of its training
    cluster mean with an offset at half the prototype radius. Ball noise
    keeps every sample within 2 units of its prototype, so a margin of 3
    decides every known sample correctly with huge one-sided evidence.
    """
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--known", "2", "--unknown", "1",
                 "--dim", "4", "--train-samples", "100", "--val-samples", "60",
                 "--cooccurrence", "0.0", "--seed", "11"]) == 0
    split = load_dataset(data)
    _, x, y, _ = samples_to_arrays(split.train, split.k_known, split.dim)

    dim, k = split.dim, split.k_known
    big = 1e6
    weight = np.zeros((2 * dim, 2 * k))
    bias = np.zeros(2 * k)
    for j in range(k):
        mean = x[y[:, j] == 1].mean(axis=0)
        radius = float(np.linalg.norm(mean))
        v = np.concatenate([mean, -mean]) / radius
        weight[:, 2 * j] = big * v
        weight[:, 2 * j + 1] = -big * v
        bias[2 * j] = -big * radius / 2.0
        bias[2 * j + 1] = big * radius / 2.0
    mlp = MlpParams([(np.vstack([np.eye(dim), -np.eye(dim)]), np.zeros(2 * dim))])
    ckpt = tmp_path / "oracle.ckpt"
    save_checkpoint(ckpt, mlp, EvidenceHeadParams(weight, bias))
    return data, ckpt


class TestEval:
    def test_oracle_model_scores_perfectly(self, tmp_path, capsys):
        data, ckpt = _oracle_fixture(tmp_path)
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--ciw", str(data / CIW_FILENAME), "--out", str(out)]) == 0
        report = yaml.safe_load((out / EVAL_REPORT_FILENAME).read_text())
        assert report["task"] == "msdc"
        assert report["metrics"]["f1_normal"] == 1.0
        assert report["metrics"]["f2_ciw"] == 1.0
        assert all(
            (row["precision"], row["recall"], row["f2"]) == (1.0, 1.0, 1.0)
            for row in report["per_class"].values()
        )
        assert report["counts"]["known"] + report["counts"]["unknown"] == 60
        assert report["config"]["threshold"] == 0.5
        stdout = capsys.readouterr().out
        assert "F1_Normal: 1.0000" in stdout and "F2_CIW:    1.0000" in stdout

    def test_report_rerun_is_byte_identical(self, tmp_path):
        data, ckpt = _oracle_fixture(tmp_path)
        args = ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                "--ciw", str(data / CIW_FILENAME)]
        assert main([*args, "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / EVAL_REPORT_FILENAME).read_bytes() == (
            tmp_path / "b" / EVAL_REPORT_FILENAME
        ).read_bytes()

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        data, _ = _oracle_fixture(tmp_path)
        other = _generate(tmp_path / "other")  # dim 4 data, 3 classes
        ckpt = _checkpoint(other, tmp_path / "run")
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--ciw", str(data / CIW_FILENAME), "--out", str(tmp_path / "e")])
        assert code == 2
        assert "classes" in capsys.readouterr().err

    def test_negative_ciw_weight_exits_2(self, tmp_path, capsys):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        mixed = tmp_path / "mixed.tsv"
        save_ciw_config(CIWTable.from_pairs(
            [("known_01", 2.0), ("known_02", -0.5), ("known_03", 0.5)]), mixed)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(d),
                     "--ciw", str(mixed), "--out", str(tmp_path / "e")])
        assert code == 2
        assert "F2_CIW needs CIW weights >= 0" in capsys.readouterr().err

    def test_bad_threshold_exits_2(self, tmp_path):
        data, ckpt = _oracle_fixture(tmp_path)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                     "--ciw", str(data / CIW_FILENAME), "--out", str(tmp_path / "e"),
                     "--threshold", "1.5"])
        assert code == 2

    def test_no_known_validation_samples_exits_3(self, tmp_path):
        split = DatasetSplit(
            train=SampleTable(("t0",), [[0.0, 0.0]], [[True, False]], [False]),
            validation=SampleTable(("v0",), [[0.0, 0.0]], [[False, True]], [True]),
            known_classes=("a",), unknown_classes=("u",), dim=2,
        )
        d = tmp_path / "data"
        save_dataset(split, d)
        save_ciw_config(CIWTable.uniform(["a"], 0.5), d / CIW_FILENAME)
        mlp, head = init_model(2, 1, hidden=(4,), feature_dim=4, seed=0)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, mlp, head)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(d),
                     "--ciw", str(d / CIW_FILENAME), "--out", str(tmp_path / "e")])
        assert code == 3


class TestOod:
    def test_reports_and_scores_for_both_aggregations(self, tmp_path):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        for agg in ("max", "sum"):
            out = tmp_path / agg
            assert main(["ood", "--checkpoint", str(ckpt), "--data", str(d),
                         "--out", str(out), "--agg", agg]) == 0
            report = yaml.safe_load((out / OOD_REPORT_FILENAME).read_text())
            assert report["task"] == "ood"
            assert report["config"]["aggregation"] == agg
            assert "auroc" in report["metrics"] and "fpr95" in report["metrics"]
            assert report["counts"]["known"] + report["counts"]["unknown"] == 40
            rows = (out / OOD_SCORES_FILENAME).read_text().splitlines()
            assert len(rows) == 41  # header plus one row per validation sample
            assert rows[0] == "sample_id,uncertainty,is_unknown"

    def test_sum_scores_dominate_max_scores(self, tmp_path):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        scores = {}
        for agg in ("max", "sum"):
            out = tmp_path / agg
            assert main(["ood", "--checkpoint", str(ckpt), "--data", str(d),
                         "--out", str(out), "--agg", agg]) == 0
            rows = (out / OOD_SCORES_FILENAME).read_text().splitlines()[1:]
            scores[agg] = np.array([float(r.split(",")[1]) for r in rows])
        assert (scores["sum"] >= scores["max"]).all()

    def test_no_unknown_samples_exits_3(self, tmp_path, capsys):
        d = tmp_path / "data"
        assert main(["generate", "--out", str(d), "--known", "3", "--unknown", "0",
                     "--dim", "4", "--train-samples", "40", "--val-samples", "20",
                     "--seed", "3"]) == 0
        ckpt = _checkpoint(d, tmp_path / "run")
        code = main(["ood", "--checkpoint", str(ckpt), "--data", str(d),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no unknown" in capsys.readouterr().err

    def test_no_known_samples_exits_3(self, tmp_path, capsys):
        d = _generate(tmp_path / "data", ["--unknown-rate", "1.0"])
        ckpt = _checkpoint(d, tmp_path / "run")
        code = main(["ood", "--checkpoint", str(ckpt), "--data", str(d),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert "no known samples" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_aggregation_exits_2(self, tmp_path):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        code = main(["ood", "--checkpoint", str(ckpt), "--data", str(d),
                     "--out", str(tmp_path / "o"), "--agg", "median"])
        assert code == 2

    def test_missing_checkpoint_exits_3(self, tmp_path):
        d = _generate(tmp_path / "data")
        code = main(["ood", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--data", str(d), "--out", str(tmp_path / "o")])
        assert code == 3


class TestParser:
    def test_unknown_flag_raises_system_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--out", "x", "--bogus"])
        assert err.value.code == 2

    def test_missing_subcommand_raises_system_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("command, flag, value, problem", [
        ("generate", "--noise", "-1e-3", "noise must be >= 0, got -0.001"),
        ("train", "--lr", "-inf", "learning_rate must be >= 0, got -inf"),
        ("generate", "--separation", "-nan", "separation must be > 0, got nan"),
    ])
    def test_negative_value_as_separate_word_gets_the_range_error(
            self, tmp_path, capsys, command, flag, value, problem):
        out = tmp_path / "out"
        if command == "generate":
            args = ["generate", "--out", str(out), *TINY_GEN]
        else:
            d = _generate(tmp_path / "data")
            args = ["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                    "--out", str(out), *TINY_TRAIN]
        capsys.readouterr()
        assert main([*args, flag, value]) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"
        assert not out.exists()


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["generate", "train", "refit"])
    def test_exits_2_before_writing(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "generate":
            args = ["generate", "--out", str(out), *TINY_GEN, "--seed", "-1"]
        else:
            d = _generate(tmp_path / "data")
            args = ["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                    "--out", str(out), *TINY_TRAIN, "--seed", "-1"]
            if command == "refit":
                ckpt = _checkpoint(d, tmp_path / "run")
                args += ["--freeze-backbone", "--init-from", str(ckpt), "--seed", "-2"]
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "seed must be >= 0" in err
        assert not out.exists()


def _replace_feature(path, lineno, value):
    lines = path.read_text().splitlines()
    fields = lines[lineno - 1].split("\t")
    fields[1] = ",".join([value, *fields[1].split(",")[1:]])
    lines[lineno - 1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")


class TestCorruptInputsExit3:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["train", "eval", "ood"])
    def test_non_finite_feature(self, tmp_path, capsys, command, value):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        # each command reads the records of one split file only
        _replace_feature(d / (TRAIN_FILENAME if command == "train" else VAL_FILENAME), 5, value)
        args = {
            "train": ["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME), *TINY_TRAIN],
            "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(d),
                     "--ciw", str(d / CIW_FILENAME)],
            "ood": ["ood", "--checkpoint", str(ckpt), "--data", str(d)],
        }[command]
        capsys.readouterr()
        assert main([*args, "--out", str(tmp_path / "out")]) == 3
        assert "line 5: non-finite feature" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "ood"])
    def test_non_finite_checkpoint_value(self, tmp_path, capsys, command):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        lines = ckpt.read_text().splitlines()
        lines[6] = " ".join(["nan", *lines[6].split()[1:]])
        ckpt.write_text("\n".join(lines) + "\n")
        extra = ["--ciw", str(d / CIW_FILENAME)] if command == "eval" else []
        capsys.readouterr()
        assert main([command, "--checkpoint", str(ckpt), "--data", str(d), *extra,
                     "--out", str(tmp_path / "out")]) == 3
        assert "line 7: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, poison", [
        pytest.param("eval", "backbone", id="eval"),
        pytest.param("ood", "backbone", id="ood"),
        pytest.param("eval", "head_bias", id="eval-head_bias"),
        pytest.param("ood", "head_bias", id="ood-head_bias"),
    ])
    def test_checkpoint_weights_that_overflow(self, tmp_path, capsys, command, poison):
        """Finite weights whose forward pass overflows float64: exit 3, one
        error line and no numpy warning, no output. A head bias of 1e308 on
        both outputs of a class leaves its evidence finite, but not its
        e_pos + e_neg, so that class has no Beta strength."""
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        mlp, head = load_checkpoint(ckpt)
        if poison == "backbone":
            # two backbone layers, so each is scaled past the square root of float64's max
            mlp = MlpParams([(w * 1e200, b) for w, b in mlp.layers])
        else:
            head = EvidenceHeadParams(head.weight, np.r_[1e308, 1e308, head.bias[2:]])
        save_checkpoint(ckpt, mlp, head)
        extra = ["--ciw", str(d / CIW_FILENAME)] if command == "eval" else []
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([command, "--checkpoint", str(ckpt), "--data", str(d), *extra,
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: ") and "is not finite" in err
        assert err.count("\n") == 1
        sample = err.split("for sample ")[1].split()[0]
        assert sample in load_dataset(d).validation.ids
        assert not out.exists()

    @pytest.mark.parametrize("epochs", ["0", "1"])
    @pytest.mark.parametrize("backbone", ["scaled", "alternating"])
    def test_refit_on_checkpoint_weights_that_overflow(self, tmp_path, capsys, backbone,
                                                       epochs):
        """The frozen refit on a backbone whose finite weights overflow float64:
        exit 3 naming the checkpoint and a training sample, no warning, no output."""
        d = _generate(tmp_path / "data")
        ckpt = tmp_path / "poison.ckpt"
        if backbone == "scaled":
            # three backbone layers, so each is scaled past the cube root of float64's max
            mlp, head = load_checkpoint(_train(d, tmp_path / "run"))
            mlp = MlpParams([(w * 1e120, b) for w, b in mlp.layers])
        else:
            # alternating +-1e308 columns: products hit +-inf with mixed signs, so NaN
            w = np.empty((4, 4))
            w[:, ::2], w[:, 1::2] = 1e308, -1e308
            mlp, head = MlpParams([(w, np.zeros(4))]), init_head(4, 3, 0)
        save_checkpoint(ckpt, mlp, head)
        out = tmp_path / "tuned"
        capsys.readouterr()
        assert main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                     "--out", str(out), "--freeze-backbone", "--init-from", str(ckpt),
                     "--epochs", epochs]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ckpt}: the model's backbone output for sample ")
        assert "is not finite" in err and err.count("\n") == 1
        sample = err.split("for sample ")[1].split()[0]
        assert sample in load_dataset(d).train.ids
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "ood"])
    def test_trailing_checkpoint_content(self, tmp_path, capsys, command):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        n_lines = len(ckpt.read_text().splitlines())
        with open(ckpt, "a") as fh:
            fh.write("garbage\n")
        extra = ["--ciw", str(d / CIW_FILENAME)] if command == "eval" else []
        capsys.readouterr()
        assert main([command, "--checkpoint", str(ckpt), "--data", str(d), *extra,
                     "--out", str(tmp_path / "out")]) == 3
        assert f"line {n_lines + 1}: unexpected content" in capsys.readouterr().err

    @pytest.mark.parametrize("target, command", [
        (TRAIN_FILENAME, "train"), (VAL_FILENAME, "ood"),
        (CIW_FILENAME, "train"), (CHECKPOINT_FILENAME, "eval"),
    ])
    def test_non_utf8_input(self, tmp_path, capsys, target, command):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        bad = ckpt if target == CHECKPOINT_FILENAME else d / target
        n_lines = len(bad.read_bytes().splitlines())
        with open(bad, "ab") as fh:
            fh.write(b"\xff")
        args = {
            "train": ["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME), *TINY_TRAIN],
            "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(d),
                     "--ciw", str(d / CIW_FILENAME)],
            "ood": ["ood", "--checkpoint", str(ckpt), "--data", str(d)],
        }[command]
        capsys.readouterr()
        assert main([*args, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{bad}: line {n_lines + 1}: not UTF-8 text" in err


    def test_train_split_without_rows(self, tmp_path, capsys):
        d = _generate(tmp_path / "data")
        train = d / TRAIN_FILENAME
        train.write_text(train.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert main(["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME),
                     *TINY_TRAIN, "--out", str(tmp_path / "out")]) == 3
        assert "train split has no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["known_01\tx\n", "known_01\t1e400\n"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_malformed_ciw_line(self, tmp_path, capsys, command, text):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        bad = tmp_path / "bad.tsv"
        bad.write_text(text)
        args = {
            "train": ["train", "--data", str(d), *TINY_TRAIN],
            "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(d)],
        }[command]
        capsys.readouterr()
        assert main([*args, "--ciw", str(bad), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 1: ")


def _command(command, d, ckpt, out):
    """The arguments of `command`; "refit" is `train` with a frozen `ckpt` backbone."""
    if command in ("eval", "ood"):
        extra = ["--ciw", str(d / CIW_FILENAME)] if command == "eval" else []
        return [command, "--checkpoint", str(ckpt), "--data", str(d), *extra, "--out", str(out)]
    args = ["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME), "--out", str(out),
            *TINY_TRAIN]
    if command == "refit":
        args += ["--freeze-backbone", "--init-from", str(ckpt)]
    return args


@pytest.mark.parametrize("command, flag, value", [
    pytest.param("train", "--prior-weight", "2", id="prior-weight-train"),
    pytest.param("eval", "--prior-weight", "2", id="prior-weight-eval"),
    pytest.param("ood", "--prior-weight", "2", id="prior-weight-ood"),
    pytest.param("train", "--hidden", "64,64", id="hidden-train"),
    pytest.param("train", "--feature-dim", "32", id="feature-dim-train"),
    pytest.param("refit", "--hidden", "64,64", id="hidden-refit"),
    pytest.param("refit", "--feature-dim", "32", id="feature-dim-refit"),
])
def test_removed_flag_is_rejected(tmp_path, capsys, command, flag, value):
    """Fixed settings take no flag, not even at their fixed value: the prior
    weight is 2, and training builds the default architecture (the refit
    takes its backbone from --init-from)."""
    d = _generate(tmp_path / "data")
    ckpt = _checkpoint(d, tmp_path / "run")
    out = tmp_path / "out"
    args = _command(command, d, ckpt, out)
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main([*args, flag, value])
    assert err.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "ood"])
def test_no_known_classes_in_the_header_exits_3(tmp_path, capsys, command):
    """K=0 is a data error at line 1 of train.edlset, the first file each command reads."""
    d = _generate(tmp_path / "data", ["--normal-rate", "1.0"])
    ckpt = _checkpoint(d, tmp_path / "run")
    for name in (TRAIN_FILENAME, VAL_FILENAME):
        path = d / name
        path.write_text(path.read_text().replace(" K=3 ", " K=0 ", 1))
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(_command(command, d, ckpt, out)) == 3
    assert capsys.readouterr().err == f"error: {d / TRAIN_FILENAME}: line 1: K must be >= 1\n"
    assert not out.exists()


# each command, and the split file it reads only the header line of
_HEADER_ONLY = pytest.mark.parametrize("command, header_only", [
    pytest.param("eval", TRAIN_FILENAME, id="eval"),
    pytest.param("ood", TRAIN_FILENAME, id="ood"),
    pytest.param("train", VAL_FILENAME, id="train"),
    pytest.param("refit", VAL_FILENAME, id="refit"),
])


class TestTrainFileForEvalAndOod:
    """Each command reads only the header line of one split file: `eval` and
    `ood` that of train.edlset, `train` and the refit that of val.edlset."""

    OUTPUTS = {"eval": [EVAL_REPORT_FILENAME],
               "ood": [OOD_REPORT_FILENAME, OOD_SCORES_FILENAME],
               "train": [CHECKPOINT_FILENAME, TRAIN_LOG_FILENAME],
               "refit": [CHECKPOINT_FILENAME, TRAIN_LOG_FILENAME]}

    @pytest.mark.parametrize("damage", ["garbage records", "truncated after the header"])
    @_HEADER_ONLY
    def test_train_records_are_not_read(self, tmp_path, command, header_only, damage):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        assert main(_command(command, d, ckpt, tmp_path / "pristine")) == 0
        path = d / header_only
        header, records = path.read_bytes().split(b"\n", 1)
        body = b""
        if damage == "garbage records":
            body = b"not a record \xff\n" * records.count(b"\n")
        path.write_bytes(header + b"\n" + body)
        assert main(_command(command, d, ckpt, tmp_path / "damaged")) == 0
        for name in self.OUTPUTS[command]:
            assert (tmp_path / "damaged" / name).read_bytes() == (
                tmp_path / "pristine" / name).read_bytes()

    @pytest.mark.parametrize("fault, problem", [
        ("missing", "missing dataset file"),
        ("empty", "line 1: empty dataset file"),
        ("malformed header", "line 1: malformed dataset header"),
        ("non-UTF-8 header", "line 1: not UTF-8 text"),
    ])
    @_HEADER_ONLY
    def test_bad_train_header_exits_3(self, tmp_path, capsys, command, header_only, fault,
                                      problem):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        path = d / header_only
        header, rest = path.read_bytes().split(b"\n", 1)
        if fault == "missing":
            path.unlink()
        else:
            path.write_bytes({
                "empty": b"",
                "malformed header": b"#edlset\n" + rest,
                "non-UTF-8 header": header + b"\xff\n" + rest,
            }[fault])
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(_command(command, d, ckpt, out)) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: {problem}")
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        (" D=4 ", " D=5 "), (" K=3 ", " K=2 "), ("classes=known_01", "classes=other_01"),
    ])
    @_HEADER_ONLY
    def test_train_header_disagreement_exits_3(self, tmp_path, capsys, command, header_only,
                                               old, new):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        path = d / header_only
        text = path.read_text()
        assert old in text.splitlines()[0]
        path.write_text(text.replace(old, new, 1))
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(_command(command, d, ckpt, out)) == 3
        assert capsys.readouterr().err == (
            f"error: {d / VAL_FILENAME}: line 1: train and validation headers disagree\n")
        assert not out.exists()


@pytest.mark.parametrize("command, flags, problem", [
    ("train", ["--epochs", "-1"], "epochs must be >= 0, got -1"),
    ("train", ["--init-from", "c.ckpt"],
     "--init-from is only supported together with --freeze-backbone"),
    ("train", ["--freeze-backbone"], "--freeze-backbone requires --init-from CHECKPOINT"),
    ("refit", ["--lr", "-1"], "learning_rate must be >= 0, got -1.0"),
    ("eval", ["--threshold", "2"], "--threshold must be in [0, 1], got 2.0"),
    ("ood", ["--agg", "median"], "unknown aggregation 'median' (expected max, sum, or topN)"),
])
def test_bad_flags_exit_2_before_any_file_is_read(tmp_path, capsys, command, flags, problem):
    missing = tmp_path / "nowhere"
    out = tmp_path / "out"
    assert main([*_command(command, missing, missing / "c.ckpt", out), *flags]) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not out.exists()


def test_outputs_are_the_same_bytes_without_the_caches(tmp_path, monkeypatch):
    d = _generate(tmp_path / "data")
    ckpt = tmp_path / "run" / CHECKPOINT_FILENAME
    outputs = []
    for cached in (True, False):
        with monkeypatch.context() as patch:
            if cached:  # every split file is read from its cache
                patch.setattr(datasets, "_parse_records", None)
            else:
                for name in (TRAIN_FILENAME, VAL_FILENAME):
                    (d / (name + CACHE_SUFFIX)).unlink()
            for command, out in (("train", "run"), ("eval", "run"), ("ood", "run"),
                                 ("refit", "run2")):
                assert main(_command(command, d, ckpt, tmp_path / out)) == 0
        written = sorted(tmp_path.glob("run*/*"))
        outputs.append({path: path.read_bytes() for path in written})
        for path in written:
            path.unlink()
    assert len(outputs[0]) == 7 and outputs[0] == outputs[1]


class TestAtomicWrites:
    """A write that cannot be completed leaves every earlier file as it was."""

    @pytest.mark.parametrize("command", ["generate", "train", "eval", "ood"])
    def test_failed_replace_keeps_previous_files(self, tmp_path, capsys, monkeypatch, command):
        d = _generate(tmp_path / "data")
        ckpt = _checkpoint(d, tmp_path / "run")
        out = tmp_path / "out"
        args, targets = {
            "generate": (["generate", *TINY_GEN],
                         [TRAIN_FILENAME, VAL_FILENAME, CIW_FILENAME]),
            "train": (["train", "--data", str(d), "--ciw", str(d / CIW_FILENAME), *TINY_TRAIN],
                      [CHECKPOINT_FILENAME, TRAIN_LOG_FILENAME]),
            "eval": (["eval", "--checkpoint", str(ckpt), "--data", str(d),
                      "--ciw", str(d / CIW_FILENAME)], [EVAL_REPORT_FILENAME]),
            "ood": (["ood", "--checkpoint", str(ckpt), "--data", str(d)],
                    [OOD_REPORT_FILENAME, OOD_SCORES_FILENAME]),
        }[command]
        out.mkdir()
        for name in targets:
            (out / name).write_bytes(b"previous " + name.encode() + b"\n")

        def refuse(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr("evidkit.fileio.os.replace", refuse)
        capsys.readouterr()
        assert main([*args, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: cannot replace")
        assert sorted(p.name for p in out.iterdir()) == sorted(targets)
        for name in targets:
            assert (out / name).read_bytes() == b"previous " + name.encode() + b"\n"
