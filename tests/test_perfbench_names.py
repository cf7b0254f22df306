"""The benchmark's tracer finds every name it patches, called as it counts.

``perfbench/spans.py`` times layers by swapping the functions named in
``CLI_NAMES`` and ``NETWORK_NAMES`` for wrappers in the ``evidkit.cli``
and ``evidkit.network`` namespaces. A refactor that renames, inlines or
deletes one of them breaks the benchmark, so every name must resolve to
a callable there, and the trainer must call each step function once per
step. The module is loaded from its path without writing a bytecode
cache, and is not registered in ``sys.modules``.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import evidkit.cli
import evidkit.network
from evidkit.base_rates import CIWTable

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize(
    "table, namespace",
    [("CLI_NAMES", evidkit.cli), ("NETWORK_NAMES", evidkit.network)],
)
def test_traced_names_resolve(table, namespace):
    names = getattr(_load_spans(), table)
    assert names
    missing = [name for name in names if not callable(getattr(namespace, name, None))]
    assert not missing, f"{table} names missing from {namespace.__name__}: {missing}"


@pytest.mark.parametrize("fit", ["train_model", "finetune_head"])
def test_step_functions_run_once_per_step(monkeypatch, fit):
    """Each traced step function is looked up and called once per SGD step.

    The tracer counts calls to these names and compares the gradient
    elements ``batch_loss_grads`` returns with those ``sgd_step`` applies,
    so a trainer that inlines one of them, or calls it per parameter,
    would silently change the traced metrics.
    """
    calls = {name: [] for name in _load_spans().NETWORK_NAMES}
    for name in calls:
        original = getattr(evidkit.network, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls[_name].append((args, result))
            return result

        monkeypatch.setattr(evidkit.network, name, counting)

    monkeypatch.setattr(evidkit.network, "BATCH_SIZE", 16)
    n, config = 70, evidkit.network.TrainConfig(epochs=3)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(n, 5))
    y = (rng.random((n, 2)) < 0.3).astype(float)
    ciw = CIWTable.uniform(["a", "b"])
    if fit == "train_model":
        evidkit.network.train_model(x, y, config, ciw, hidden=(6,), feature_dim=3)
    else:
        mlp, head = evidkit.network.init_model(5, 2, hidden=(6,), feature_dim=3)
        evidkit.network.finetune_head(mlp, head, x, y, config, ciw)

    steps = config.epochs * math.ceil(n / evidkit.network.BATCH_SIZE)
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, steps)
    for (_, result), (step_args, _) in zip(calls["batch_loss_grads"], calls["sgd_step"]):
        _, grads, g_head_w, g_head_b = result
        computed = sum(w.size + b.size for w, b in grads) + g_head_w.size + g_head_b.size
        assert computed == step_args[1].size
