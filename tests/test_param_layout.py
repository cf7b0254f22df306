"""Initialization and checkpoints read one parameter layout; the bytes stay put.

``network._param_layout`` is the one statement of the parameters' names,
order and shapes. The code it replaced wrote that layout out in each
place: a per-layer draw loop in ``init_model`` (and a second draw for the
head), a name list in ``save_checkpoint``, and an ``expected`` list plus
a name-keyed reassembly in ``load_checkpoint``. Copies of those are kept
below as oracles, and every array and every checkpoint byte must match
them.

Width 1 is the hard case: a (1, n) backbone weight and a bias stored as
one row then have the same 2-D shape, so a loader that tells a bias by
its row count flattens that weight.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evidkit.network import init_head, init_model, load_checkpoint, save_checkpoint


def _oracle_init_head(feature_dim, num_classes, seed):
    """The head's two draws: weight (F, 2K), then bias (2K,)."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / math.sqrt(feature_dim)
    return [rng.uniform(-bound, bound, size=(feature_dim, 2 * num_classes)),
            rng.uniform(-bound, bound, size=(2 * num_classes,))]


def _oracle_init(dim_in, num_classes, hidden, feature_dim, seed):
    """The per-layer draw loop, then the head's draws on the same generator."""
    rng = np.random.default_rng(seed)
    dims = [dim_in, *hidden, feature_dim]
    arrays = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / math.sqrt(d_in)
        arrays.append(rng.uniform(-bound, bound, size=(d_out, d_in)))
        arrays.append(rng.uniform(-bound, bound, size=(d_out,)))
    return arrays + _oracle_init_head(feature_dim, num_classes, rng)


def _oracle_checkpoint_text(layers, head_weight, head_bias):
    """The checkpoint writer with its own tensor list, from (W, b) layers."""
    hidden = [w.shape[0] for w, _ in layers[:-1]]
    lines = [
        "#evidkit-model v1",
        f"input {layers[0][0].shape[1]}",
        "hidden " + (",".join(str(h) for h in hidden) if hidden else "-"),
        f"features {layers[-1][0].shape[0]}",
        f"classes {head_weight.shape[1] // 2}",
    ]
    tensors = []
    for i, (w, b) in enumerate(layers):
        tensors.append((f"backbone.{i}.weight", w))
        tensors.append((f"backbone.{i}.bias", b[None, :]))
    tensors.append(("head.weight", head_weight))
    tensors.append(("head.bias", head_bias[None, :]))
    for name, t in tensors:
        lines.append(f"param {name} {t.shape[0]} {t.shape[1]}")
        for row in t:
            lines.append(" ".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _oracle_load(text):
    """The loader's name-keyed reassembly: arrays in init order, biases as row 0."""
    lines = text.splitlines()
    hidden_raw = lines[2].split()[1]
    hidden = [] if hidden_raw == "-" else [int(h) for h in hidden_raw.split(",")]
    n_layers = len(hidden) + 1
    tensors = {}
    i = 5
    while i < len(lines) and lines[i].strip():
        _, name, rows, _ = lines[i].split()
        block = lines[i + 1:i + 1 + int(rows)]
        tensors[name] = np.array([[float(v) for v in row.split()] for row in block])
        i += 1 + int(rows)
    arrays = []
    for k in range(n_layers):
        arrays += [tensors[f"backbone.{k}.weight"], tensors[f"backbone.{k}.bias"][0]]
    return arrays + [tensors["head.weight"], tensors["head.bias"][0]]


def _model_arrays(mlp, head):
    return [p for layer in mlp.layers for p in layer] + [head.weight, head.bias]


def _assert_same_arrays(got, want):
    assert [a.shape for a in got] == [a.shape for a in want]
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


architectures = st.fixed_dictionaries({
    "dim_in": st.integers(1, 3),
    "hidden": st.lists(st.integers(1, 3), max_size=3).map(tuple),
    "feature_dim": st.integers(1, 3),
    "num_classes": st.integers(1, 3),
    "seed": st.integers(0, 2**32 - 1),
})


def _width_one(hidden, feature_dim=1, num_classes=1, dim_in=1, seed=0):
    return {"dim_in": dim_in, "hidden": hidden, "feature_dim": feature_dim,
            "num_classes": num_classes, "seed": seed}


@settings(max_examples=60, deadline=None)
@given(arch=architectures)
@example(arch=_width_one(()))
@example(arch=_width_one((1,), seed=5))
@example(arch=_width_one((1, 1), feature_dim=2, num_classes=3))
@example(arch=_width_one((3, 1), dim_in=2, seed=5))
@example(arch=_width_one((2,), feature_dim=1, num_classes=3, dim_in=2))
def test_init_and_checkpoint_match_the_per_site_layouts(arch):
    mlp, head = init_model(arch["dim_in"], arch["num_classes"], arch["hidden"],
                           arch["feature_dim"], arch["seed"])
    want = _oracle_init(arch["dim_in"], arch["num_classes"], arch["hidden"],
                        arch["feature_dim"], arch["seed"])
    _assert_same_arrays(_model_arrays(mlp, head), want)

    fresh = init_head(arch["feature_dim"], arch["num_classes"], arch["seed"])
    _assert_same_arrays([fresh.weight, fresh.bias],
                        _oracle_init_head(arch["feature_dim"], arch["num_classes"], arch["seed"]))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_checkpoint(path, mlp, head)
        written = path.read_bytes()
        loaded = load_checkpoint(path)
    text = _oracle_checkpoint_text(list(zip(want[:-2:2], want[1:-2:2])), *want[-2:])
    assert written == text.encode("utf-8")
    _assert_same_arrays(_model_arrays(*loaded), _oracle_load(text))
    _assert_same_arrays(_model_arrays(*loaded), want)
