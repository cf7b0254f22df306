"""The benchmark's tracer finds every name it patches.

``perfbench/spans.py`` times layers by swapping the functions named in
``CLI_NAMES`` and ``NETWORK_NAMES`` for wrappers in the ``evidkit.cli``
and ``evidkit.network`` namespaces. A refactor that renames, inlines or
deletes one of them breaks the benchmark, so every name must resolve to
a callable there. The module is loaded from its path without writing a
bytecode cache, and is not registered in ``sys.modules``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import evidkit.cli
import evidkit.network

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
