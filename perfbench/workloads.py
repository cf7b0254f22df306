"""The three benchmark workloads.

Each is a closed loop with one caller: an iteration starts only after
the previous one returned. The CLI workloads call `evidkit.cli.main`
in-process, so interpreter start-up and imports are paid once, in
set-up, not in every command. `library-scoring` calls the functions the
README's "Library use" section documents.

Every workload returns a `Run`: per-iteration stage times, the ops
attempted and failed, the problems the output checks found and the
quality figures of the first iteration.

Times are taken with a `clock.Clock`, which scales each operation to a
fixed reference speed; see that module for why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from clock import Clock

STAGES = ("generate", "train", "eval", "ood", "refit")

@dataclass
class Run:
    pipeline_s: list[float] = field(default_factory=list)
    stage_s: dict[str, list[float]] = field(default_factory=lambda: {s: [] for s in STAGES})
    setup_s: list[float] = field(default_factory=list)
    raw_pipeline_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def _timed_loop(seconds: float, iteration, tracer) -> None:
    """Run iteration(i, traced) until `seconds` have passed.

    With a tracer, iterations alternate untraced / traced, so the same
    run yields per-layer spans and the untraced time they are compared
    with; it goes on until each kind has at least one iteration.
    """
    start = time.perf_counter()
    i = 0
    while True:
        iteration(i, tracer is not None and i % 2 == 1)
        i += 1
        enough = i >= (2 if tracer else 1)
        if enough and time.perf_counter() - start >= seconds:
            return


# -- CLI workloads ------------------------------------------------------

# generate / train / refit flags on top of the CLI defaults
CLI_SIZES = {
    "cli-default": {"n_train": 2000, "n_val": 600, "epochs": 60, "refit_epochs": 20},
    "cli-scaled": {"n_train": 50000, "n_val": 15000, "epochs": 1, "refit_epochs": 1},
}
CLI_SMOKE = {
    "cli-default": {"n_train": 200, "n_val": 100, "epochs": 2, "refit_epochs": 1},
    "cli-scaled": {"n_train": 300, "n_val": 150, "epochs": 1, "refit_epochs": 1},
}


def cli_commands(seed: int, size: dict) -> list[tuple[str, list[str], list[str]]]:
    """(stage, argv, artifacts written) for one pass of the README walkthrough.

    Paths are relative to the work directory, as in the README, so the
    reports hold the same text on every machine.
    """
    ciw = ["--ciw", "data/ciw.tsv"]
    return [
        ("generate",
         ["generate", "--out", "data", "--seed", str(seed),
          "--train-samples", str(size["n_train"]), "--val-samples", str(size["n_val"])],
         ["data/train.edlset", "data/val.edlset", "data/ciw.tsv"]),
        ("train",
         ["train", "--data", "data", *ciw, "--out", "run", "--epochs", str(size["epochs"])],
         ["run/model.ckpt", "run/train_log.yaml"]),
        ("eval",
         ["eval", "--checkpoint", "run/model.ckpt", "--data", "data", *ciw, "--out", "run"],
         ["run/eval_report.yaml"]),
        ("ood",
         ["ood", "--checkpoint", "run/model.ckpt", "--data", "data", "--out", "run",
          "--agg", "max"],
         ["run/ood_report.yaml", "run/ood_scores.csv"]),
        ("refit",
         ["train", "--data", "data", *ciw, "--out", "run2", "--freeze-backbone",
          "--init-from", "run/model.ckpt", "--epochs", str(size["refit_epochs"])],
         ["run2/model.ckpt", "run2/train_log.yaml"]),
    ]


def _call_main(main, argv) -> tuple[object, str]:
    """Run one CLI command; returns (exit code or error, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed op; the run goes on
            code = "exception"
            err.write(traceback.format_exc())
    return code, err.getvalue()


def _sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(name: str, seed: int, seconds: float, smoke: bool, workdir: Path,
            clock: Clock, tracer) -> Run:
    import evidkit.cli as cli
    import evidkit.network as network

    size = (CLI_SMOKE if smoke else CLI_SIZES)[name]
    commands = cli_commands(seed, size)
    run = Run()
    reference: dict[str, str | None] = {}

    def iteration(i: int, traced: bool) -> None:
        for sub in ("data", "run", "run2"):
            shutil.rmtree(workdir / sub, ignore_errors=True)
        if traced:
            tracer.install(cli, network)
        times, raw_s, codes = {}, 0.0, {}
        for stage, argv, _ in commands:
            if traced:
                codes[stage], times[stage], raw = clock.time(
                    tracer.command, f"cli.{stage}", _call_main, cli.main, argv)
            else:
                codes[stage], times[stage], raw = clock.time(_call_main, cli.main, argv)
            raw_s += raw
        if traced:
            tracer.uninstall()
            tracer.end_iteration(raw_s)
        else:
            run.pipeline_s.append(sum(times.values()))
            run.raw_pipeline_s.append(raw_s)
            for stage, t in times.items():
                run.stage_s[stage].append(t)

        # output check, outside the timed region
        for stage, _, artifacts in commands:
            run.attempted += 1
            code, err = codes[stage]
            if code != 0:
                run.fail(f"iteration {i}: {stage} exited {code}: {err.strip()[-300:]}")
                continue
            digests = {a: _sha256(workdir / a) for a in artifacts}
            if i == 0:
                reference.update(digests)
            changed = [a for a in artifacts
                       if digests[a] is None or digests[a] != reference.get(a)]
            if changed:
                run.fail(f"iteration {i}: {stage} wrote artifacts that differ from "
                         f"iteration 0: {changed}")
        if i == 0:
            problems, quality = checks.check_cli_outputs(workdir, size)
            run.problems.extend(problems)
            run.quality = quality

    _timed_loop(seconds, iteration, tracer)
    run.digests = {a: d for a, d in reference.items() if d is not None}
    return run


# -- library workload ---------------------------------------------------

# n_pool validation rows are generated; the workload seed picks n_val of them
LIBRARY_SIZE = {"n_train": 2000, "n_pool": 40000, "n_val": 20000, "epochs": 60}
LIBRARY_SMOKE = {"n_train": 200, "n_pool": 800, "n_val": 400, "epochs": 2}
# refits timed as one block after each pass: one takes about 0.14 s, too
# short for a steady time on its own
REFIT_REPEATS = 3
# scoring steps timed as one block in each untraced pass, for the same reason
SCORE_REPEATS = 4
AGGREGATIONS = ("max", "sum", "top2")


def library_setup(seed: int, size: dict, clock: Clock):
    """README "Library use", plus the documented frozen-backbone refit.

    The model is the README's: default GenConfig and TrainConfig seeds,
    trained from scratch. The workload seed draws the scored validation
    rows from a larger pool of the same distribution. Varying the model
    instead would vary how many scores tie (dead evidence outputs give
    u = 1 exactly), and the cost of FPR95 and AUPR grows with the number
    of distinct scores, so pass times would follow the model seed rather
    than the code. Returns the scoring inputs, the scaled time of each
    step, and the refit: REFIT_REPEATS identical frozen-backbone refits of
    the README's model, run between scoring passes so that refit_s exists
    on every workload.
    """
    from evidkit.base_rates import CIWTable, adjust_base_rates
    from evidkit.datasets import GenConfig, generate_dataset, samples_to_arrays
    from evidkit.network import TrainConfig, finetune_head, init_head, train_model

    def fit():
        _, x, y, _ = samples_to_arrays(split.train, split.k_known, split.dim)
        return x, y, train_model(x, y, TrainConfig(epochs=size["epochs"]), ciw)

    def refit():
        for _ in range(REFIT_REPEATS):
            head = init_head(result.mlp.dim_out, split.k_known, 0)
            refitted = finetune_head(result.mlp, head, x, y,
                                     TrainConfig(epochs=20, learning_rate=0.001), ciw)
        return refitted

    cfg = GenConfig(n_train=size["n_train"], n_val=size["n_pool"])
    split, t_generate, _ = clock.time(generate_dataset, cfg)
    ciw = CIWTable.uniform(split.known_classes, 0.5)
    (x, y, result), t_train, _ = clock.time(fit)
    rows = np.sort(np.random.default_rng(seed).choice(size["n_pool"], size["n_val"], replace=False))
    scored = [split.validation[i] for i in rows]
    _, xv, yv, unknown = samples_to_arrays(scored, split.k_known, split.dim)
    rates = adjust_base_rates(ciw)
    inputs = {
        "mlp": result.mlp,
        "head": result.head,
        "x": xv,
        "y": yv,
        "unknown": unknown,
        "a_pos": np.array([r.a_pos for r in rates]),
        "a_neg": np.array([r.a_neg for r in rates]),
        "ciw": ciw,
        "backbone": [(w.copy(), b.copy()) for w, b in result.mlp.layers],
    }
    return inputs, {"generate": t_generate, "train": t_train}, refit


def _library_functions(tracer):
    from evidkit import evaluation, network

    fns = {
        "batch_evidence": ("network.batch_evidence", network.batch_evidence),
        "predict_batch": ("evaluation.predict_batch", evaluation.predict_batch),
        "f1_normal": ("evaluation.f1_normal", evaluation.f1_normal),
        "f2_ciw": ("evaluation.f2_ciw", evaluation.f2_ciw),
        "auroc": ("evaluation.auroc", evaluation.auroc),
        "aupr": ("evaluation.aupr", evaluation.aupr),
        "fpr_at_95_tpr": ("evaluation.fpr_at_95_tpr", evaluation.fpr_at_95_tpr),
    }
    raw = {k: fn for k, (_, fn) in fns.items()}
    traced = {k: tracer.span(span, fn) for k, (span, fn) in fns.items()} if tracer else raw
    return raw, traced, evaluation.parse_aggregation


def library_pass(fn, parse_aggregation, d, clock: Clock, tracer, repeats: int):
    """One scoring pass; returns (results, repeated, score s, rank s, raw s).

    Scoring is the forward pass, the three predictions and the
    known-class F scores, run `repeats` times back to back and timed as
    one block; the score and raw times are per step. `repeated` holds the
    outputs of the steps after the first. Ranking is AUROC / AUPR / FPR95
    per aggregation, each call timed on its own. Each call is its own op.
    """
    def op(name, *args, **kwargs):
        if tracer is not None:
            tracer.command_id += 1
        return fn[name](*args, **kwargs)

    known = ~d["unknown"]

    def score():
        evidence = op("batch_evidence", d["mlp"], d["head"], d["x"])
        preds = {
            agg: op("predict_batch", evidence, d["a_pos"], d["a_neg"],
                    agg=parse_aggregation(agg))
            for agg in AGGREGATIONS
        }
        labels = preds["max"].labels[known]
        return {
            "evidence": evidence,
            "f1_normal": op("f1_normal", labels, d["y"][known]),
            "f2_ciw": op("f2_ciw", labels, d["y"][known], d["ciw"]),
            **{f"predict_batch.{agg}": p for agg, p in preds.items()},
        }

    scored, block_s, raw_block_s = clock.time(lambda: [score() for _ in range(repeats)])
    results, repeated = scored[0], scored[1:]
    score_s, raw_s = block_s / repeats, raw_block_s / repeats
    rank_s = 0.0
    for agg in AGGREGATIONS:
        uncertainty = results[f"predict_batch.{agg}"].uncertainty
        for metric, name in (("auroc", "auroc"), ("aupr", "aupr"), ("fpr95", "fpr_at_95_tpr")):
            results[f"{metric}.{agg}"], scaled, raw = clock.time(
                op, name, uncertainty, d["unknown"])
            rank_s += scaled
            raw_s += raw
    return results, repeated, score_s, rank_s, raw_s


def _fingerprint(value) -> str:
    """A digest of one op's output, to compare passes exactly."""
    h = hashlib.sha256()
    if isinstance(value, float):
        h.update(np.float64(value).tobytes())
    elif isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value).tobytes())
    elif hasattr(value, "epoch_losses"):  # TrainResult of the refit
        for part in (value.head.weight, value.head.bias, np.array(value.epoch_losses)):
            h.update(np.ascontiguousarray(part).tobytes())
    else:  # BatchPrediction
        for part in (value.probabilities, value.uncertainties, value.uncertainty, value.labels):
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _setup_digest(inputs: dict) -> str:
    """A digest of what set-up made: the scored rows and the trained model."""
    h = hashlib.sha256()
    parts = [inputs["x"], inputs["y"], inputs["unknown"], inputs["head"].weight,
             inputs["head"].bias, *(a for layer in inputs["mlp"].layers for a in layer)]
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def run_library(seed: int, seconds: float, smoke: bool, clock: Clock, tracer) -> Run:
    """Set up once, then loop: a scoring pass, a refit block, set-up again.

    Set-up is repeated after every pass, not only before the loop, so the
    set-up times are sampled across the whole run, as the pass times are.
    """
    size = LIBRARY_SMOKE if smoke else LIBRARY_SIZE
    run = Run()

    def setup():
        inputs, times, refit = library_setup(seed, size, clock)
        run.setup_s.append(sum(times.values()))
        for stage, v in times.items():
            run.stage_s[stage].append(v)
        return inputs, refit

    try:
        inputs, refit = setup()
    except Exception:  # set-up must not fail on these inputs
        run.problems.append("set-up failed: " + traceback.format_exc()[-500:])
        return run
    setup_digest = _setup_digest(inputs)
    raw, wrapped, parse_aggregation = _library_functions(tracer)
    reference: dict[str, str] = {}

    def iteration(i: int, traced: bool) -> None:
        try:
            # a traced pass scores once, so spans count one pass
            results, repeated, score_s, rank_s, raw_s = library_pass(
                wrapped if traced else raw, parse_aggregation, inputs, clock,
                tracer if traced else None, 1 if traced else SCORE_REPEATS,
            )
        except Exception:  # every op of the pass counts as failed
            n_ops = 4 + 2 + 3 * len(AGGREGATIONS)
            run.attempted += n_ops
            for _ in range(n_ops):
                run.fail(f"pass {i}: " + traceback.format_exc()[-300:])
            return
        if traced:
            tracer.end_iteration(raw_s)
        else:
            run.pipeline_s.append(score_s + rank_s)
            run.raw_pipeline_s.append(raw_s)
            run.stage_s["eval"].append(score_s)
            run.stage_s["ood"].append(rank_s)
        # outside the pass: untraced, and not part of pipeline_s
        try:
            results["refit"], refit_s, _ = clock.time(refit)
        except Exception:
            run.attempted += 1
            run.fail(f"refit after pass {i}: " + traceback.format_exc()[-300:])
        else:
            run.stage_s["refit"].append(refit_s / REFIT_REPEATS)

        digests = {k: _fingerprint(v) for k, v in results.items()}
        if i == 0:
            reference.update(digests)
            problems, quality = checks.check_library_results(results, inputs)
            run.problems.extend(problems)
            run.quality = quality
        for k, digest in digests.items():
            run.attempted += 1
            if digest != reference.get(k):
                run.fail(f"pass {i}: {k} differs from pass 0")
        for r, again in enumerate(repeated, 2):
            for k, v in again.items():
                run.attempted += 1
                if _fingerprint(v) != reference.get(k):
                    run.fail(f"pass {i}, scoring step {r}: {k} differs from pass 0")

        run.attempted += 1
        try:
            again, _ = setup()
        except Exception:
            run.fail(f"set-up after pass {i}: " + traceback.format_exc()[-300:])
        else:
            if _setup_digest(again) != setup_digest:
                run.fail(f"set-up after pass {i} differs from the first set-up")

    _timed_loop(seconds, iteration, tracer)
    run.digests = reference
    return run
