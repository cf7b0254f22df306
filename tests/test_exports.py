"""Every exported name has a caller or a documented use.

A public top-level function, class or constant of ``src/evidkit`` must
occur, as a whole word, somewhere other than its own definition: in the
package, in ``perfbench/*.py`` or in ``README.md``. Tests do not count
as callers. A name kept for a use stated elsewhere is listed in
``DOCUMENTED`` with the reason.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "evidkit"

DOCUMENTED = {
    "baseline_ood_scores": "the README's Evaluation bullet (MaxLogit and JointEnergy "
                           "baselines); ROADMAP item 2 gives it a CLI caller or deletes it",
    "opinion_from_evidence": "the README's Opinions bullet: the scalar oracle of the "
                             "belief masses",
    "probability_from_opinion": "the README's Opinions bullet: the scalar oracle of the "
                                "projected probability",
    "expected_probability": "the README's Opinions bullet: the scalar oracle of the Beta "
                            "expectation",
}


def _public_names(source: str) -> list[str]:
    """Top-level functions, classes and assigned names of a module, without a leading _."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _corpus() -> str:
    files = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py")),
             ROOT / "README.md"]
    return "\n".join(f.read_text(encoding="utf-8") for f in files)


def _unused(names, corpus: str) -> list[str]:
    """The names that occur only once, at their definition, as a whole word."""
    return [n for n in names if len(re.findall(rf"(?<!\w){re.escape(n)}(?!\w)", corpus)) < 2]


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", MODULES, ids=[m.stem for m in MODULES])
def test_every_export_has_a_use(module):
    unused = _unused(_public_names(module.read_text(encoding="utf-8")), _corpus())
    undocumented = [n for n in unused if n not in DOCUMENTED]
    assert not undocumented, (
        f"{module.name}: {undocumented} have no caller in src/evidkit or perfbench and no "
        "mention in README.md; delete them, or list them in DOCUMENTED with the reason"
    )


def test_documented_names_are_still_unused():
    """An entry goes once its name gains a caller, or the name is deleted."""
    names = [n for m in MODULES for n in _public_names(m.read_text(encoding="utf-8"))]
    assert sorted(_unused(names, _corpus())) == sorted(DOCUMENTED)


def test_a_planted_export_is_caught():
    planted = "LIMIT: int = 3\n\n\nclass Spare:\n    pass\n\n\ndef spare_helper():\n" \
              "    return LIMIT\n"
    names = _public_names(planted)
    assert names == ["LIMIT", "Spare", "spare_helper"]
    assert _unused(names, _corpus() + "\n" + planted) == ["Spare", "spare_helper"]
