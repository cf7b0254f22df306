"""Golden SHA-256 digests of every file the README walkthrough writes.

Runs generate, train, eval, ood and the ``--freeze-backbone`` refit as
``python -m evidkit.cli`` subprocesses with one BLAS thread
(``EDL_NUM_THREADS=1``) and compares each output file's digest with a
value recorded on the platform in ``PLATFORM``. Criterion 8 only checks
that two runs of the same code agree; these digests also hold across
refactors. The README's "Library use" block runs the same way and must
print the AUROC the README states. The bytes depend on the BLAS build and
on the kernels OpenBLAS picks for the CPU, so the tests skip anywhere
else. A change that alters an artifact on purpose re-records the digests
and says why in CHANGES.md.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evidkit

PLATFORM = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31",
    "blas_core": "SkylakeX",
    "machine": "x86_64",
}

GOLDEN = {
    "data/train.edlset": "9155547fbae8a8c9207d4b5365cf53acd96ae9ff483826afc8ac3fea73c8abd0",
    "data/val.edlset": "89a9f686d58b3f35f6ee3dfc235071e8f5aa4591750aa0aa40bc4d3c57322930",
    "data/train.edlset.cache":
        "1b472f2eeb1478f4ca1dabe18c96be3480c2875c314c8ed307797b152cc24ee7",
    "data/val.edlset.cache": "8f156553f6ae37c5e18aa91d82239b95dfcff87d6526143d2ef80b30d33f47fd",
    "data/ciw.tsv": "834db3f26c582f441079658b3f523b02f395a7a4ae56c7aa03336d578e36f5f6",
    "run/model.ckpt": "92f1bcb6357d79d22a5c9bee9bb948309b5cfda836e0bef1fcfedc65107fd099",
    "run/train_log.yaml": "477e584a6c300e4356371aa4f31ca2c0a8b27e93030ba2609944f14da246c0d4",
    "run/eval_report.yaml": "f0457e975782e62a822bc0da3992f21ccf0f5446c5d049663ae93f9bfe5986af",
    "run/ood_report.yaml": "7803e9a82389fa07f566fa12d47668a058b2625ecdc390ad9eb5f34de87bb209",
    "run/ood_scores.csv": "f18bbd514894d7c0a62297c66e1b377d705357f6e4d98e4a9ee87cfcba98198d",
    "run2/model.ckpt": "7827e789b05c2d41bd3bd81a46d68470bd8bc158905ec09d5d3b9584daee17ce",
    "run2/train_log.yaml": "e89e7f40763bb3d4c4c355470abbe839c288fca183c1a696d2d90770d0afeb5f",
}

WALKTHROUGH = [
    ["generate", "--out", "data"],
    ["train", "--data", "data", "--ciw", "data/ciw.tsv", "--out", "run"],
    ["eval", "--checkpoint", "run/model.ckpt", "--data", "data",
     "--ciw", "data/ciw.tsv", "--out", "run"],
    ["ood", "--checkpoint", "run/model.ckpt", "--data", "data", "--out", "run",
     "--agg", "max"],
    ["train", "--data", "data", "--ciw", "data/ciw.tsv", "--out", "run2",
     "--freeze-backbone", "--init-from", "run/model.ckpt"],
]


def _openblas_core():
    """Name of the kernel set OpenBLAS chose for this CPU, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def _platform():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    version = ".".join(str(blas.get("version", "")).split(".")[:3])
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {version}",
        "blas_core": _openblas_core(),
        "machine": platform.machine(),
    }


def _run_python(args, workdir: Path) -> subprocess.CompletedProcess:
    """Run ``python *args`` on this evidkit with one BLAS thread."""
    package_root = str(Path(evidkit.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = {
        key: value for key, value in os.environ.items()
        if key not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["EDL_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = package_root + (os.pathsep + inherited if inherited else "")
    return subprocess.run([sys.executable, *args], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=600)


def _run_walkthrough(workdir: Path) -> None:
    for command in WALKTHROUGH:
        proc = _run_python(["-m", "evidkit.cli", *command], workdir)
        assert proc.returncode == 0, f"{' '.join(command)} failed: {proc.stderr}"


def _skip_off_platform():
    here = _platform()
    if here != PLATFORM:
        pytest.skip(f"digests were recorded on {PLATFORM}, this platform is {here}")


def test_walkthrough_artifacts_match_golden_digests(tmp_path):
    _skip_off_platform()
    _run_walkthrough(tmp_path)
    digests = {
        rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in GOLDEN
    }
    assert digests == GOLDEN


def _readme_library_block() -> str:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_block_prints_its_auroc(tmp_path):
    # the README states 0.857 for this block and a seed table beside it
    _skip_off_platform()
    proc = _run_python(["-c", _readme_library_block()], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("unknown-detection AUROC: 0.857"), proc.stdout
