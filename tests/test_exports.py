"""Every exported name has a caller or a documented use.

A public top-level function, class or constant of ``src/evidkit`` must
be referenced in the code of the package or of ``perfbench/*.py`` (read
as a name, read as an attribute or imported, in f-string expressions
too), or be mentioned as a whole word in ``README.md``. A mention in a
docstring or a comment is not a use, and tests do not count as callers.
A name kept for a use stated elsewhere is listed in ``DOCUMENTED`` with
the reason.

A private top-level name (one leading ``_``, not a dunder) must be
referenced by the code of the package itself, by the same rules; no
helper is left behind when its last caller goes.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "evidkit"

DOCUMENTED = {
    "baseline_ood_scores": "the README's Evaluation bullet (MaxLogit and JointEnergy "
                           "baselines); the ROADMAP item that makes 'present' mean evidence "
                           "and 'unknown' mean far gives it a CLI caller or deletes it",
    "opinion_from_evidence": "the README's Opinions bullet: the scalar oracle of the "
                             "belief masses",
    "probability_from_opinion": "the README's Opinions bullet: the scalar oracle of the "
                                "projected probability",
    "expected_probability": "the README's Opinions bullet: the scalar oracle of the Beta "
                            "expectation",
}


def _top_level_names(source: str) -> list[str]:
    """Top-level functions, classes and assigned names of a module."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def _public_names(source: str) -> list[str]:
    """The top-level names of a module without a leading _."""
    return [n for n in _top_level_names(source) if not n.startswith("_")]


def _private_names(source: str) -> list[str]:
    """The top-level names of a module with a leading _, dunders aside."""
    return [n for n in _top_level_names(source)
            if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def _references(source: str) -> Counter:
    """How often the code of ``source`` refers to each name: as a name it
    reads, as an attribute or as an imported name. A definition is not a
    reference, and neither is a docstring, a comment or any other string."""
    refs = Counter()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name] += 1
    return refs


def _code_references() -> Counter:
    files = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    return sum((_references(f.read_text(encoding="utf-8")) for f in files), Counter())


README = (ROOT / "README.md").read_text(encoding="utf-8")


def _unused(names, refs: Counter) -> list[str]:
    """The names that the code never refers to and the README never mentions."""
    return [n for n in names
            if not refs[n] and not re.search(rf"(?<!\w){re.escape(n)}(?!\w)", README)]


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=[m.stem for m in MODULES])
def test_every_export_has_a_use(module):
    unused = _unused(_public_names(module.read_text(encoding="utf-8")), _code_references())
    undocumented = [n for n in unused if n not in DOCUMENTED]
    assert not undocumented, (
        f"{module.name}: {undocumented} have no caller in src/evidkit or perfbench and no "
        "mention in README.md; delete them, or list them in DOCUMENTED with the reason"
    )


def test_documented_names_are_still_unused():
    """An entry goes once its name gains a caller, or the name is deleted."""
    names = [n for m in MODULES for n in _public_names(m.read_text(encoding="utf-8"))]
    assert sorted(_unused(names, _code_references())) == sorted(DOCUMENTED)


def test_a_planted_export_is_caught():
    # LIMIT is used in an f-string; spare_doc only in a docstring and a comment
    planted = (
        'LIMIT: int = 3\n\n\nclass Spare:\n    pass\n\n\n'
        'def spare_helper():\n    """The limit, as spare_doc gives it."""\n'
        '    return f"{LIMIT}"  # see spare_doc\n\n\n'
        'def spare_doc():\n    pass\n'
    )
    names = _public_names(planted)
    assert names == ["LIMIT", "Spare", "spare_helper", "spare_doc"]
    refs = _code_references() + _references(planted)
    assert _unused(names, refs) == ["Spare", "spare_helper", "spare_doc"]


def _package_references() -> Counter:
    return sum((_references(m.read_text(encoding="utf-8")) for m in MODULES), Counter())


@pytest.mark.parametrize("module", MODULES, ids=[m.stem for m in MODULES])
def test_every_private_name_has_a_caller(module):
    refs = _package_references()
    unused = [n for n in _private_names(module.read_text(encoding="utf-8")) if not refs[n]]
    assert not unused, f"{module.name}: {unused} have no caller in src/evidkit; delete them"


def test_a_planted_private_helper_is_caught():
    # _LIMIT is read by _helper, which is read nowhere; _spare only in a docstring
    planted = (
        '__version__ = "1"\n_LIMIT = 3\n\n\nclass _Spare:\n    pass\n\n\n'
        'def _helper():\n    """The limit, as _spare gives it."""\n    return _LIMIT\n\n\n'
        'def _spare():\n    pass\n'
    )
    names = _private_names(planted)
    assert names == ["_LIMIT", "_Spare", "_helper", "_spare"]
    refs = _package_references() + _references(planted)
    assert [n for n in names if not refs[n]] == ["_Spare", "_helper", "_spare"]
