"""The command line runs the library's own defaults.

`generate` with no flags must write what ``GenConfig()`` generates,
default `train` must log ``asdict(TrainConfig())`` and the SGD recipe's
constants, and the help text of every subcommand must stay as recorded,
so that stating a default in one place changes no option, default or
output byte.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
import yaml

import evidkit
from evidkit import network
from evidkit.cli import (
    CIW_FILENAME,
    EVAL_REPORT_FILENAME,
    FINETUNE_EPOCHS,
    FINETUNE_LR,
    OOD_REPORT_FILENAME,
    TRAIN_LOG_FILENAME,
    main,
)
from evidkit.datasets import (
    CACHE_SUFFIX,
    TRAIN_FILENAME,
    VAL_FILENAME,
    GenConfig,
    generate_dataset,
    random_ciw_table,
    save_ciw_config,
    save_dataset,
)
from evidkit.evaluation import DEFAULT_THRESHOLD
from evidkit.network import DEFAULT_FEATURE_DIM, DEFAULT_HIDDEN, TrainConfig
from evidkit.opinions import DEFAULT_PRIOR_WEIGHT

TINY_GEN = ["--known", "3", "--unknown", "1", "--dim", "4",
            "--train-samples", "80", "--val-samples", "40", "--seed", "3"]

# SHA-256 of `evidkit [command] --help` at 80 columns, as argparse of
# Python 3.11 formats it
HELP_PYTHON = (3, 11)
HELP_SHA256 = {
    "": "469ccec2eff129e366ff5c48a43b6866cc10aa9e2d75f56e2e824556dc33148b",
    "generate": "caba75a8f1bee87f0220332a31c14d8333aaa8f5b1f2e1970384cc2cbf8345f0",
    "train": "3b157c1b12bff82aeaf6474c4f97522ce79568dc9731ff3747afa61f84028eb9",
    "eval": "1dc6e87ff9390dbca64e0baf19c1a718ef3d953ac6afffd09c1f719d01c63c5f",
    "ood": "8798f140f4833fa389dc81aa335243435c10a601e72e4d41a88b906fe7ed0844",
}


def test_generate_without_flags_writes_the_default_config(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "cli")]) == 0
    split = generate_dataset(GenConfig())
    save_dataset(split, tmp_path / "lib")
    save_ciw_config(random_ciw_table(split.known_classes, seed=GenConfig().seed),
                    tmp_path / "lib" / CIW_FILENAME)
    for name in (TRAIN_FILENAME, VAL_FILENAME, TRAIN_FILENAME + CACHE_SUFFIX,
                 VAL_FILENAME + CACHE_SUFFIX, CIW_FILENAME):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def _logged_config(tmp_path, extra=()):
    data = tmp_path / "data"
    if not data.exists():
        assert main(["generate", "--out", str(data), *TINY_GEN]) == 0
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--ciw", str(data / CIW_FILENAME),
                 "--out", str(out), *extra]) == 0
    return yaml.safe_load((out / TRAIN_LOG_FILENAME).read_text())["config"], out


def test_default_train_logs_the_default_configs(tmp_path):
    config, out = _logged_config(tmp_path)
    assert {k: config[k] for k in asdict(TrainConfig())} == asdict(TrainConfig())
    for key in ("batch_size", "weight_decay"):
        assert config[key] == getattr(network, key.upper())
    # the log's keys, exactly: a constant rate leaves no schedule to record
    assert set(config) == {"data", "ciw", *asdict(TrainConfig()), "batch_size",
                           "weight_decay", "hidden", "feature_dim", "prior_weight",
                           "freeze_backbone", "init_from"}
    assert config["hidden"] == list(DEFAULT_HIDDEN)
    assert config["feature_dim"] == DEFAULT_FEATURE_DIM
    assert config["prior_weight"] == DEFAULT_PRIOR_WEIGHT
    assert config["freeze_backbone"] is False and config["init_from"] is None

    data = tmp_path / "data"
    assert main(["eval", "--checkpoint", str(out / "model.ckpt"), "--data", str(data),
                 "--ciw", str(data / CIW_FILENAME), "--out", str(out)]) == 0
    report = yaml.safe_load((out / EVAL_REPORT_FILENAME).read_text())
    assert report["config"]["threshold"] == DEFAULT_THRESHOLD
    assert report["config"]["prior_weight"] == DEFAULT_PRIOR_WEIGHT

    assert main(["ood", "--checkpoint", str(out / "model.ckpt"), "--data", str(data),
                 "--out", str(out)]) == 0
    report = yaml.safe_load((out / OOD_REPORT_FILENAME).read_text())
    assert report["config"]["prior_weight"] == DEFAULT_PRIOR_WEIGHT


def test_frozen_refit_logs_its_own_epochs_and_rate(tmp_path):
    _, out = _logged_config(tmp_path, ["--epochs", "1"])
    config, _ = _logged_config(
        tmp_path, ["--freeze-backbone", "--init-from", str(out / "model.ckpt")])
    expected = asdict(TrainConfig(epochs=FINETUNE_EPOCHS, learning_rate=FINETUNE_LR))
    assert {k: config[k] for k in expected} == expected


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_text_is_unchanged(monkeypatch, capsys, command):
    if sys.version_info[:2] != HELP_PYTHON:
        pytest.skip(f"help digests were recorded with Python {HELP_PYTHON}")
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*command.split(), "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_SHA256[command], text


def test_importing_the_cli_pins_blas_threads():
    package_root = str(Path(evidkit.__file__).resolve().parent.parent)
    env = {key: value for key, value in os.environ.items()
           if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["EDL_NUM_THREADS"] = "3"
    env["PYTHONPATH"] = package_root
    code = ("import os, evidkit.cli; print(' '.join(os.environ[v] for v in "
            "('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["3", "3", "3"]
