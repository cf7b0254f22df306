"""Fuzzed input files and flag values never escape `main()` as an exception.

The CLI promises exit codes 0 (success), 2 (configuration), 3 (data) and
4 (numeric failure) for every input. These tests mutate the bytes of a
valid `.edlset`, CIW table and checkpoint, and give every numeric flag
out-of-range and non-finite values; `main()` must return one of those
codes, and a run given bad flags must fail before it writes anything.
Sizes stay small: the point is the input space, not the workload.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evidkit.cli import CHECKPOINT_FILENAME, CIW_FILENAME, main
from evidkit.datasets import TRAIN_FILENAME, VAL_FILENAME

EXIT_CODES = {0, 2, 3, 4}
TINY_GEN = ["--known", "3", "--unknown", "1", "--dim", "4",
            "--train-samples", "40", "--val-samples", "30", "--seed", "3"]
TINY_TRAIN = ["--hidden", "4", "--feature-dim", "3", "--epochs", "1"]

FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# bytes that keep a mutated file close to the formats' own alphabet
FORMAT_BYTES = b"0123456789.,-+eE\t\n #_:=naif"
EXTREME_FLOATS = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 0.0, -0.0,
                  5e-324, -1.0, 0.5, 1.0, 2.0, 1e6]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A tiny dataset with its CIW table, and a model trained on it."""
    root = tmp_path_factory.mktemp("pristine")
    with np.errstate(all="ignore"):
        assert main(["generate", "--out", str(root / "data"), *TINY_GEN]) == 0
        assert main(["train", "--data", str(root / "data"),
                     "--ciw", str(root / "data" / CIW_FILENAME),
                     "--out", str(root / "run"), *TINY_TRAIN]) == 0
    return root


def _args(root: Path, command: str) -> list[str]:
    data, ckpt = root / "data", root / "run" / CHECKPOINT_FILENAME
    return {
        "train": ["train", "--data", str(data), "--ciw", str(data / CIW_FILENAME),
                  *TINY_TRAIN],
        "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--ciw", str(data / CIW_FILENAME)],
        "ood": ["ood", "--checkpoint", str(ckpt), "--data", str(data)],
    }[command] + ["--out", str(root / "out")]


def _run(args) -> int:
    with np.errstate(all="ignore"):
        code = main(args)
    assert code in EXIT_CODES
    return code


edits = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(min_value=0, max_value=2**32),
        st.one_of(st.sampled_from(FORMAT_BYTES), st.integers(min_value=0, max_value=255)),
    ),
    min_size=1, max_size=4,
)


def _mutate(data: bytes, changes, truncate) -> bytes:
    buf = bytearray(data)
    for kind, position, byte in changes:
        i = position % (len(buf) + 1)
        if kind == "insert":
            buf.insert(i, byte)
        elif i < len(buf):
            if kind == "replace":
                buf[i] = byte
            else:
                del buf[i]
    if truncate is not None:
        del buf[truncate % (len(buf) + 1):]
    return bytes(buf)


@pytest.mark.parametrize("target, command", [
    ("data/" + TRAIN_FILENAME, "train"),
    ("data/" + TRAIN_FILENAME, "eval"),
    ("data/" + TRAIN_FILENAME, "ood"),
    ("data/" + VAL_FILENAME, "eval"),
    ("data/" + VAL_FILENAME, "ood"),
    ("data/" + CIW_FILENAME, "train"),
    ("data/" + CIW_FILENAME, "eval"),
    ("run/" + CHECKPOINT_FILENAME, "eval"),
    ("run/" + CHECKPOINT_FILENAME, "ood"),
])
@FUZZ
@given(changes=edits, truncate=st.none() | st.integers(min_value=0, max_value=2**32))
def test_mutated_input_file(pristine, target, command, changes, truncate):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        path = root / target
        path.write_bytes(_mutate(path.read_bytes(), changes, truncate))
        _run(_args(root, command))


floats = st.one_of(st.sampled_from(EXTREME_FLOATS), st.floats())


def _flags(draw, spec) -> list[str]:
    """`--flag=value` for a drawn subset of the flags (`=` keeps "-inf" a value)."""
    chosen = draw(st.lists(st.sampled_from(sorted(spec)), unique=True))
    return [f"{flag}={draw(spec[flag])}" for flag in chosen]


@FUZZ
@given(data=st.data())
def test_generate_flags(data):
    flags = _flags(data.draw, {
        "--seed": st.integers(min_value=-2, max_value=2**40),
        "--known": st.integers(min_value=-1, max_value=6),
        "--unknown": st.integers(min_value=-1, max_value=4),
        "--dim": st.integers(min_value=-1, max_value=8),
        "--train-samples": st.integers(min_value=-1, max_value=40),
        "--val-samples": st.integers(min_value=-1, max_value=40),
        "--separation": floats,
        "--cooccurrence": floats,
        "--noise": floats,
        "--normal-rate": floats,
        "--unknown-rate": floats,
        "--unknown-scale": floats,
    })
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "data"
        if _run(["generate", "--out", str(out), *TINY_GEN, *flags]) != 0:
            assert not out.exists()


@FUZZ
@given(data=st.data())
def test_train_flags(pristine, data):
    flags = _flags(data.draw, {
        "--epochs": st.integers(min_value=-1, max_value=5),  # decay powers up to 4
        "--batch-size": st.integers(min_value=-1, max_value=50),
        "--lr": floats,
        "--lr-decay-ratio": floats,
        "--lr-decay-every": st.integers(min_value=-1, max_value=3),
        "--weight-decay": floats,
        "--seed": st.integers(min_value=-2, max_value=2**40),
        "--hidden": st.sampled_from(["", " ", ",", "0", "-1", "3", "4,2", "8,x"]),
        "--feature-dim": st.integers(min_value=-1, max_value=4),
    })
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        if _run([*_args(root, "train"), *flags]) != 0:
            assert not (root / "out").exists()


@FUZZ
@given(data=st.data())
def test_eval_and_ood_flags(pristine, data):
    command = data.draw(st.sampled_from(["eval", "ood"]))
    if command == "eval":
        spec = {"--threshold": floats}
    else:
        spec = {"--agg": st.sampled_from(
            ["max", "sum", "top1", "top3", "top0", "top99", "top-1", "topx", "", "mean"])}
    flags = _flags(data.draw, spec)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        if _run([*_args(root, command), *flags]) != 0:
            assert not (root / "out").exists()
