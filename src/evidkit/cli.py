"""Command-line pipeline: generate, train, eval, ood.

Every command is deterministic given its seed and inputs; reports and
checkpoints are byte-identical across reruns with the same arguments.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure during training.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .base_rates import CIWTable, base_rate_arrays
from .datasets import (
    GenConfig,
    generate_dataset,
    load_ciw_config,
    load_dataset,  # unused here; perfbench patches this name (ROADMAP item 8)
    load_training,
    load_validation,
    random_ciw_table,
    samples_to_arrays,
    save_ciw_config,
    save_dataset,
)
from .errors import ConfigError, DataFormatError, NonFiniteOutput, TrainingDiverged
from .evaluation import (
    DEFAULT_THRESHOLD,
    MAX_AGGREGATION,
    auroc,
    aupr,
    f1_normal,
    f2_ciw,
    fpr_at_95_tpr,
    parse_aggregation,
    per_class_f2,
    predict_batch,
    render_report,
    write_scores_csv,
)
from .fileio import write_text
from .network import (
    BATCH_SIZE,
    WEIGHT_DECAY,
    TrainConfig,
    batch_evidence,
    finetune_head,
    init_head,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from .opinions import DEFAULT_PRIOR_WEIGHT

CHECKPOINT_FILENAME = "model.ckpt"
TRAIN_LOG_FILENAME = "train_log.yaml"
EVAL_REPORT_FILENAME = "eval_report.yaml"
OOD_REPORT_FILENAME = "ood_report.yaml"
OOD_SCORES_FILENAME = "ood_scores.csv"
CIW_FILENAME = "ciw.tsv"

# what main() returns for each error it reports
_EXIT_CODES = {ConfigError: 2, DataFormatError: 3, TrainingDiverged: 4, OSError: 3}

# the head-only refit's own defaults; training from scratch takes TrainConfig's
FINETUNE_EPOCHS, FINETUNE_LR = 20, 0.001


def _config_values(config, args) -> dict:
    """The parsed flags that fill fields of the dataclass `config`, unset ones left out."""
    values = {f.name: getattr(args, f.name) for f in fields(config)}
    return {name: value for name, value in values.items() if value is not None}


def _align_ciw(table: CIWTable, class_names) -> CIWTable:
    """Reorder a CIW table to the dataset's known-class order."""
    by_name = dict(table.entries)
    missing = [c for c in class_names if c not in by_name]
    extra = [n for n in by_name if n not in set(class_names)]
    problems = [f"{kind} classes {names}"
                for kind, names in (("missing", missing), ("unexpected", extra)) if names]
    if problems:
        raise ConfigError("CIW table does not match the dataset: " + "; ".join(problems))
    return CIWTable.from_pairs((c, by_name[c]) for c in class_names)


def _check_model_matches(mlp, head, dim, k_known):
    if mlp.dim_in != dim:
        raise ConfigError(
            f"checkpoint expects {mlp.dim_in}-dimensional inputs but the dataset has "
            f"dim {dim}"
        )
    if head.num_classes != k_known:
        raise ConfigError(
            f"checkpoint has {head.num_classes} classes but the dataset has "
            f"{k_known} known classes"
        )


@contextlib.contextmanager
def _naming_sample(ids, checkpoint):
    """A NonFiniteOutput raised inside names the checkpoint and the sample id."""
    try:
        yield
    except NonFiniteOutput as exc:
        raise NonFiniteOutput(exc.what, exc.row, f"sample {ids[exc.row]}", checkpoint) from None


def cmd_generate(args) -> int:
    cfg = GenConfig(**_config_values(GenConfig, args))
    split = generate_dataset(cfg)
    out = Path(args.out)
    save_dataset(split, out)
    ciw = random_ciw_table(split.known_classes, seed=cfg.seed)
    save_ciw_config(ciw, out / CIW_FILENAME)
    n_unknown = int(split.validation.unknown.sum())
    print(f"wrote {len(split.train)} train / {len(split.validation)} val samples to {args.out}")
    print(f"known classes: {', '.join(split.known_classes)}")
    print(f"unknown classes (validation only, {n_unknown} samples): "
          f"{', '.join(split.unknown_classes) or 'none'}")
    print(f"class importance weights: {args.out}/{CIW_FILENAME}")
    return 0


def cmd_train(args) -> int:
    defaults = {}
    if args.freeze_backbone:
        defaults = {"epochs": FINETUNE_EPOCHS, "learning_rate": FINETUNE_LR}
    config = TrainConfig(**defaults | _config_values(TrainConfig, args))
    if args.init_from and not args.freeze_backbone:
        raise ConfigError("--init-from is only supported together with --freeze-backbone")
    if args.freeze_backbone and not args.init_from:
        raise ConfigError("--freeze-backbone requires --init-from CHECKPOINT")

    known_classes, train = load_training(args.data)
    ciw = _align_ciw(load_ciw_config(args.ciw), known_classes)
    if not train:
        raise DataFormatError("train split has no samples to fit")
    k_known, dim = len(known_classes), train.x.shape[1]
    ids, x, y, _ = samples_to_arrays(train, k_known, dim)
    del train  # the fit needs only the arrays; the table's memory goes before it

    if args.freeze_backbone:
        mlp, old_head = load_checkpoint(args.init_from)
        _check_model_matches(mlp, old_head, dim, k_known)
        head = init_head(mlp.dim_out, k_known, config.seed)
        with _naming_sample(ids, args.init_from):
            result = finetune_head(mlp, head, x, y, config, ciw)
    else:
        result = train_model(x, y, config, ciw)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / CHECKPOINT_FILENAME, result.mlp, result.head)
    log = {
        "command": "train",
        "config": {
            "data": args.data,
            "ciw": args.ciw,
            **asdict(config),
            "batch_size": BATCH_SIZE,
            "weight_decay": WEIGHT_DECAY,
            "hidden": result.mlp.hidden,
            "feature_dim": result.mlp.dim_out,
            "prior_weight": DEFAULT_PRIOR_WEIGHT,
            "freeze_backbone": bool(args.freeze_backbone),
            "init_from": args.init_from,
        },
        "epoch_losses": [float(v) for v in result.epoch_losses],
        "final_loss": float(result.epoch_losses[-1]) if result.epoch_losses else None,
    }
    write_text(out / TRAIN_LOG_FILENAME, render_report(log))
    if result.epoch_losses:
        print(f"trained {config.epochs} epochs; final mean loss {result.epoch_losses[-1]:.6f}")
    else:
        print("trained 0 epochs; checkpoint holds the seeded initialization")
    print(f"checkpoint: {args.out}/{CHECKPOINT_FILENAME}")
    print(f"training log: {args.out}/{TRAIN_LOG_FILENAME}")
    return 0


def cmd_eval(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:
        raise ConfigError(f"--threshold must be in [0, 1], got {args.threshold}")
    mlp, head = load_checkpoint(args.checkpoint)
    known_classes, validation = load_validation(args.data)
    k_known, dim = len(known_classes), validation.x.shape[1]
    _check_model_matches(mlp, head, dim, k_known)
    ciw = _align_ciw(load_ciw_config(args.ciw), known_classes)

    known = validation[~validation.unknown]
    n_unknown = len(validation) - len(known)
    if not known:
        raise DataFormatError("validation split has no known samples to score")
    ids, x, y, _ = samples_to_arrays(known, k_known, dim)

    a_pos, a_neg = base_rate_arrays(ciw)
    with _naming_sample(ids, args.checkpoint):
        batch = predict_batch(batch_evidence(mlp, head, x), a_pos, a_neg, threshold=args.threshold)
    f1 = f1_normal(batch.labels, y)
    f2 = f2_ciw(batch.labels, y, ciw)
    rows = per_class_f2(batch.labels, y)
    config = {name: getattr(args, name) for name in ("checkpoint", "data", "ciw", "threshold")}
    report = {
        "task": "msdc",
        "config": config | {"prior_weight": DEFAULT_PRIOR_WEIGHT},
        "counts": {"known": len(known), "unknown": n_unknown},
        "metrics": {"f1_normal": f1, "f2_ciw": f2},
        "per_class": {
            name: {"precision": p, "recall": r, "f2": f2k, "weight": w}
            for (name, w), (p, r, f2k) in zip(ciw.entries, rows)
        },
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / EVAL_REPORT_FILENAME, render_report(report))
    print(f"known-class evaluation on {len(known)} samples "
          f"({n_unknown} unknown samples excluded)")
    print(f"F1_Normal: {f1:.4f}")
    print(f"F2_CIW:    {f2:.4f}")
    print(f"report: {args.out}/{EVAL_REPORT_FILENAME}")
    return 0


def cmd_ood(args) -> int:
    agg = parse_aggregation(args.agg)
    mlp, head = load_checkpoint(args.checkpoint)
    known_classes, validation = load_validation(args.data)
    k_known, dim = len(known_classes), validation.x.shape[1]
    _check_model_matches(mlp, head, dim, k_known)

    unknown = validation.unknown
    if not unknown.any():
        raise DataFormatError("validation split contains no unknown samples; nothing to detect")
    if unknown.all():
        raise DataFormatError("validation split contains no known samples to rank against")
    ids, x, _, flags = samples_to_arrays(validation, k_known, dim)

    # base rates do not enter the vacuity u = W / S, so uniform ones suffice
    uniform = np.full(k_known, 0.5)
    with _naming_sample(ids, args.checkpoint):
        batch = predict_batch(batch_evidence(mlp, head, x), uniform, uniform, agg=agg)
    scores = batch.uncertainty

    metrics = {
        "auroc": auroc(scores, flags),
        "aupr": aupr(scores, flags),
        "fpr95": fpr_at_95_tpr(scores, flags),
    }
    counts = {"known": int((~flags).sum()), "unknown": int(flags.sum())}
    report = {
        "task": "ood",
        "config": {
            "checkpoint": args.checkpoint,
            "data": args.data,
            "aggregation": str(agg),
            "prior_weight": DEFAULT_PRIOR_WEIGHT,
        },
        "counts": counts,
        "metrics": metrics,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_text(out / OOD_REPORT_FILENAME, render_report(report))
    write_scores_csv(out / OOD_SCORES_FILENAME, ids, scores, flags)
    print(f"unknown detection over {len(ids)} validation samples "
          f"({counts['unknown']} unknown), aggregation {agg}")
    print(f"AUROC: {metrics['auroc']:.4f}")
    print(f"AUPR:  {metrics['aupr']:.4f}")
    print(f"FPR95: {metrics['fpr95']:.4f}")
    print(f"report: {args.out}/{OOD_REPORT_FILENAME}")
    print(f"scores: {args.out}/{OOD_SCORES_FILENAME}")
    return 0


def _config_flag(parser, config, flag, field=None, **kwargs) -> None:
    """Add `flag` for `field` of the dataclass `config` (by default the flag's
    own name). The field's default is the flag's default and sets its type;
    the metavar stays the one argparse derives from the flag."""
    name = flag[2:].replace("-", "_")
    field = field or name
    default = getattr(config, field)
    kwargs.setdefault("default", default)
    parser.add_argument(flag, dest=field, metavar=name.upper(), type=type(default), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evidkit",
        description="Evidential multi-label classification with unknown-class detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic dataset")
    gen.add_argument("--out", required=True, help="output directory for dataset files")
    flag = functools.partial(_config_flag, gen, GenConfig)
    flag("--seed")
    flag("--known", "k_known", help="number of known classes")
    flag("--unknown", "k_unknown",
         help="number of held-out unknown classes (validation only)")
    flag("--dim", help="feature dimensionality")
    flag("--train-samples", "n_train")
    flag("--val-samples", "n_val")
    flag("--separation", help="prototype radius in units of the noise scale")
    flag("--cooccurrence", help="probability a defect sample carries a second label")
    flag("--noise")
    flag("--normal-rate", help="fraction of label-free samples")
    flag("--unknown-rate", help="fraction of validation samples from unknown classes")
    flag("--unknown-scale",
         help="unknown prototype distance as a multiple of the pair midpoint")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train the model on a dataset directory")
    tr.add_argument("--data", required=True, help="dataset directory from `generate`")
    tr.add_argument("--ciw", required=True, help="class importance weight file")
    tr.add_argument("--out", required=True, help="output directory")
    flag = functools.partial(_config_flag, tr, TrainConfig)
    flag("--epochs", default=None,
         help=f"default {TrainConfig.epochs}, or {FINETUNE_EPOCHS} with --freeze-backbone")
    flag("--lr", "learning_rate", default=None,
         help=f"default {TrainConfig.learning_rate}, or {FINETUNE_LR} with --freeze-backbone")
    flag("--seed")
    tr.add_argument("--freeze-backbone", action="store_true",
                    help="keep backbone weights fixed and fit a fresh evidence head")
    tr.add_argument("--init-from", default=None,
                    help="checkpoint supplying the frozen backbone")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score known-class predictions on the validation split")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--ciw", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    ev.set_defaults(func=cmd_eval)

    ood = sub.add_parser("ood", help="rank unknown validation samples by uncertainty")
    ood.add_argument("--checkpoint", required=True)
    ood.add_argument("--data", required=True)
    ood.add_argument("--out", required=True)
    ood.add_argument("--agg", default=str(MAX_AGGREGATION),
                     help="uncertainty aggregation: max, sum, or topN")
    ood.set_defaults(func=cmd_ood)

    # argparse reads only "-" plus digits and dots as a negative number and has
    # no public setting for it; without this a value given as a separate word
    # (-1e-3, -inf, -nan) reads as an unknown option and never reaches the
    # range checks
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"^-\.?\d|^-(inf|nan)", re.IGNORECASE)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
