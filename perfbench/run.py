"""evidkit benchmark: one workload per process, result as the last stdout line.

    python3 perfbench/run.py --workload cli-default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy. BLAS is pinned to one thread
through EDL_NUM_THREADS=1 before evidkit (and so numpy) is imported.
With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. Everything
else (metadata, artifact digests, the pipeline tail, spans) is printed
above it and written under .perfbench/ in the checkout.
See perfbench/DESIGN.md for why the workloads and metrics are what
they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("cli-default", "cli-scaled", "library-scoring")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_REPEATS = 10

END_TO_END = [
    ("pipeline_s", "s"),
    ("generate_s", "s"),
    ("train_s", "s"),
    ("eval_s", "s"),
    ("ood_s", "s"),
    ("refit_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("f1_normal", "ratio"),
    ("f2_ciw", "ratio"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True,
                   help="dataset seed; any seed >= 0, so a claim can be rechecked on another")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed region")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def pin_blas() -> None:
    """One BLAS thread, set through evidkit's own knob before numpy loads."""
    for var in BLAS_ENV:
        os.environ.pop(var, None)
    os.environ["EDL_NUM_THREADS"] = "1"


def import_seconds(clock) -> list[float]:
    """Time of a fresh interpreter importing evidkit.cli, on the given clock."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import evidkit.cli"
    argv = [sys.executable, "-c", code]
    times = []
    for _ in range(IMPORT_REPEATS):
        _, scaled, _ = clock.time(subprocess.run, argv, check=True, cwd=ROOT, timeout=60)
        times.append(scaled)
    return times


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def metadata(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in ("EDL_NUM_THREADS", *BLAS_ENV)},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
    }


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"tail n/a (n={n} < 11)"
    ordered = sorted(samples)
    return f"p{100 * (n - 10) // n} {ordered[n - 11]:.6g} s (n={n})"


def end_to_end(run, import_s: list[float]) -> dict:
    med = statistics.median
    setup = med(import_s) + (med(run.setup_s) if run.setup_s else 0.0)
    values = {
        "pipeline_s": med(run.pipeline_s),
        **{f"{stage}_s": med(v) for stage, v in run.stage_s.items()},
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "f1_normal": run.quality["f1_normal"],
        "f2_ciw": run.quality["f2_ciw"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "evidkit" / "__init__.py").is_file():
        print(f"error: no evidkit source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_blas()
    sys.path.insert(0, str(SRC))
    import evidkit

    if Path(evidkit.__file__).resolve().parent != SRC / "evidkit":
        print(f"error: imported evidkit from {evidkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads
    from clock import Clock

    meta = metadata(args)
    tracer = spans.Tracer() if args.trace else None
    workdir = OUT / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        with Clock(enabled=tracer is None) as clock:
            import_s = import_seconds(clock)
            if args.workload == "library-scoring":
                run = workloads.run_library(args.seed, args.seconds, args.smoke, clock, tracer)
            else:
                os.chdir(workdir)  # relative paths, as in the README walkthrough
                run = workloads.run_cli(args.workload, args.seed, args.seconds, args.smoke,
                                        workdir, clock, tracer)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not run.problems and run.failed == 0 and bool(run.pipeline_s)
    if not run.quality:
        print(json.dumps({"meta": meta, "problems": run.problems}), file=sys.stderr)
        return 1
    metrics = end_to_end(run, import_s)
    if args.trace:
        metrics = tracer.per_layer(run.raw_pipeline_s, run.quality)

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "meta": meta,
        "pipeline_tail": tail(run.pipeline_s),
        "samples_s": {"pipeline": run.pipeline_s, **run.stage_s, "setup": run.setup_s,
                      "import": import_s, "raw_pipeline": run.raw_pipeline_s},
        "quality": run.quality,
        "digests": run.digests,
        "problems": run.problems,
        "metrics": metrics,
    }
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write(results / f"{args.workload}.spans.jsonl.gz")

    print("# " + json.dumps({"meta": meta}))
    print("# " + json.dumps({"digests": run.digests}))
    print("# " + json.dumps({"quality": run.quality}))
    for problem in run.problems:
        print(f"# problem: {problem}")
    for name, m in metrics.items():
        note = ""
        if name == "pipeline_s" and run.raw_pipeline_s:
            note = (f"  (median of {len(run.pipeline_s)}; {tail(run.pipeline_s)}; "
                    f"raw wall median {statistics.median(run.raw_pipeline_s):.6g} s)")
        print(f"# {name:<40} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
