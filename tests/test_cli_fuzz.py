"""Fuzzed input files and flag values never escape `main()` as an exception.

The CLI promises exit codes 0 (success), 2 (configuration), 3 (data) and
4 (numeric failure) for every input. These tests mutate the bytes of a
valid `.edlset`, CIW table and checkpoint, set one parameter array of the
checkpoint to a constant near the edge of float64's range, and give every
numeric flag out-of-range and non-finite values; `main()` must return
one of those codes with no numpy warning, and a run given bad flags must
fail before it writes anything.
Sizes stay small: the point is the input space, not the workload.
"""

import contextlib
import hashlib
import io
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from evidkit import fileio, network
from evidkit.cli import CHECKPOINT_FILENAME, CIW_FILENAME, main
from evidkit.datasets import (
    CACHE_SUFFIX,
    TRAIN_FILENAME,
    VAL_FILENAME,
    load_ciw_config,
    load_dataset,
    samples_to_arrays,
)
from evidkit.errors import DataFormatError
from evidkit.network import TrainConfig, load_checkpoint, save_checkpoint, train_model

EXIT_CODES = {0, 2, 3, 4}
TINY_GEN = ["--known", "3", "--unknown", "1", "--dim", "4",
            "--train-samples", "40", "--val-samples", "30", "--seed", "3"]
TINY_TRAIN = ["--epochs", "1"]

FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# bytes that keep a mutated file close to the formats' own alphabet
FORMAT_BYTES = b"0123456789.,-+eE\t\n #_:=naif"
EXTREME_FLOATS = [float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 0.0, -0.0,
                  5e-324, -1.0, 0.5, 1.0, 2.0, 1e6]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A tiny dataset with its CIW table, and a model trained on it. The
    library trains the model, with one hidden layer of 4 and 3 features,
    so that every copy, parse and mutation of its checkpoint stays cheap;
    `train` builds only the default architecture."""
    root = tmp_path_factory.mktemp("pristine")
    data = root / "data"
    assert main(["generate", "--out", str(data), *TINY_GEN]) == 0
    split = load_dataset(data)
    _, x, y, _ = samples_to_arrays(split.train, split.k_known, split.dim)
    result = train_model(x, y, TrainConfig(epochs=1), load_ciw_config(data / CIW_FILENAME),
                         hidden=(4,), feature_dim=3)
    (root / "run").mkdir()
    save_checkpoint(root / "run" / CHECKPOINT_FILENAME, result.mlp, result.head)
    return root


def _args(root: Path, command: str) -> list[str]:
    data, ckpt = root / "data", root / "run" / CHECKPOINT_FILENAME
    return {
        "train": ["train", "--data", str(data), "--ciw", str(data / CIW_FILENAME),
                  *TINY_TRAIN],
        "eval": ["eval", "--checkpoint", str(ckpt), "--data", str(data),
                 "--ciw", str(data / CIW_FILENAME)],
        "ood": ["ood", "--checkpoint", str(ckpt), "--data", str(data)],
        "refit": ["train", "--data", str(data), "--ciw", str(data / CIW_FILENAME),
                  "--freeze-backbone", "--init-from", str(ckpt)],
    }[command] + ["--out", str(root / "out")]


def _run(args) -> int:
    # no np.errstate here: a numpy warning escapes main() as an error (the
    # suite turns RuntimeWarning into one), as the CLI promises none
    code = main(args)
    assert code in EXIT_CODES
    return code


def _outcome(args) -> tuple[int, str]:
    """The exit code and the stderr of one run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = _run(args)
    return code, err.getvalue()


def _drop_caches(data: Path) -> None:
    for name in (TRAIN_FILENAME, VAL_FILENAME):
        (data / (name + CACHE_SUFFIX)).unlink()


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
    ("data/" + VAL_FILENAME, "train"),
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
    """Run once beside the pristine caches and once with them deleted: the
    exit code and the error are the same."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        path = root / target
        path.write_bytes(_mutate(path.read_bytes(), changes, truncate))
        cached = _outcome(_args(root, command))
        shutil.rmtree(root / "out", ignore_errors=True)
        _drop_caches(root / "data")
        assert _outcome(_args(root, command)) == cached


def _damage(data: bytes, kind: str, position: int, byte: int) -> bytes:
    buf = bytearray(data)
    i = position % len(buf)
    if kind == "flip":
        buf[i] ^= byte
    elif kind == "truncate":
        del buf[i:]
    else:
        buf += bytes([byte]) * (1 + position % 8)
    return bytes(buf)


@pytest.mark.parametrize("command", ["train", "eval", "ood", "refit"])
@FUZZ
@given(target=st.sampled_from([TRAIN_FILENAME, VAL_FILENAME]),
       kind=st.sampled_from(["flip", "truncate", "extend", "swap"]),
       position=st.integers(min_value=0, max_value=2**32),
       byte=st.integers(min_value=1, max_value=255))
def test_damaged_cache_changes_no_output(pristine, command, target, kind, position, byte):
    """A flipped, truncated or extended cache, or the train and validation
    caches swapped, leave every output byte as the pristine caches do."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        assert _run(_args(root, command)) == 0
        written = sorted((root / "out").iterdir())
        pristine_bytes = [path.read_bytes() for path in written]
        shutil.rmtree(root / "out")
        data = root / "data"
        cache = data / (target + CACHE_SUFFIX)
        if kind == "swap":
            other = data / ({TRAIN_FILENAME, VAL_FILENAME} - {target}).pop()
            cache.rename(data / "swapping")
            (other.parent / (other.name + CACHE_SUFFIX)).rename(cache)
            (data / "swapping").rename(other.parent / (other.name + CACHE_SUFFIX))
        else:
            cache.write_bytes(_damage(cache.read_bytes(), kind, position, byte))
        assert _run(_args(root, command)) == 0
        assert sorted((root / "out").iterdir()) == written
        assert [path.read_bytes() for path in written] == pristine_bytes


def test_oversized_cache_array_changes_no_output(pristine):
    """A cache whose digest matches but whose x header declares 10**12 rows,
    far more than the cache holds, is passed over before any array is
    allocated: eval writes what it writes with no cache."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        data = root / "data"
        text = (data / VAL_FILENAME).read_bytes()
        cache = data / (VAL_FILENAME + CACHE_SUFFIX)
        payload = io.BytesIO(cache.read_bytes().split(b"\n", 1)[1])
        np.lib.format.read_magic(payload)
        dim = np.lib.format.read_array_header_1_0(payload)[0][1]
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": (10**12, dim)})
        payload = header.getvalue() + payload.read()
        digest = hashlib.sha256(text + payload).hexdigest()
        cache.write_bytes(digest.encode("ascii") + b"\n" + payload)
        outputs = []
        for cached in (True, False):
            if not cached:
                _drop_caches(data)
            assert _run(_args(root, "eval")) == 0
            outputs.append({p.name: p.read_bytes() for p in (root / "out").iterdir()})
            shutil.rmtree(root / "out")
        assert outputs[0] == outputs[1]


# past the square root (1e154) and higher roots of float64's max, and near it
PARAM_VALUES = [1e154, -1e154, 1e200, 1e300, 8.9e307, 1e308, -1e308]


@FUZZ
# the head bias (the last array) at 1e308 on both outputs of every class:
# finite evidence whose e_pos + e_neg overflows
@example(command="eval", index=-1, value=1e308)
@example(command="ood", index=-1, value=1e308)
@given(command=st.sampled_from(["eval", "ood", "refit"]),
       index=st.integers(min_value=-6, max_value=-1),  # the pristine model's 6 arrays
       value=st.sampled_from(PARAM_VALUES))
def test_checkpoint_parameter_values(pristine, command, index, value):
    """One parameter array of the trained model, set to a large constant,
    makes the forward pass overflow float64 or not: the run exits 3 (a data
    error) or 0, never 2 or 4, and a run that fails writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        shutil.copytree(pristine, root, dirs_exist_ok=True)
        ckpt = root / "run" / CHECKPOINT_FILENAME
        arrays = network._param_arrays(*load_checkpoint(ckpt))
        arrays[index] = np.full_like(arrays[index], value)
        save_checkpoint(ckpt, *network._model_from_arrays(arrays))
        code = _run(_args(root, command))
        assert code in (0, 3)
        if code:
            assert not (root / "out").exists()


def _load_outcome(directory):
    """The dataset ``load_dataset`` reads, or the message of the error it raises."""
    try:
        return load_dataset(directory)
    except DataFormatError as exc:
        return str(exc)


@pytest.mark.parametrize("target", [TRAIN_FILENAME, VAL_FILENAME])
@FUZZ
@given(changes=edits, truncate=st.none() | st.integers(min_value=0, max_value=2**32))
def test_chunking_changes_no_load_outcome(pristine, target, changes, truncate):
    """64-byte reader chunks cut a record file into dozens of blocks, which
    parse, fail and name a bad line block by block; the default reads it as
    one block. Both must load the same table or raise the same message."""
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        shutil.copytree(pristine / "data", data)
        _drop_caches(data)
        path = data / target
        path.write_bytes(_mutate(path.read_bytes(), changes, truncate))
        whole = _load_outcome(data)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_READ_CHUNK_BYTES", 64)
            assert _load_outcome(data) == whole


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
        "--epochs": st.integers(min_value=-1, max_value=5),
        "--lr": floats,
        "--seed": st.integers(min_value=-2, max_value=2**40),
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
