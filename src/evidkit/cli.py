"""Command-line pipeline: generate, train, eval, ood.

Every command is deterministic given its seed and inputs; reports and
checkpoints are byte-identical across reruns with the same arguments.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure during training.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import yaml

from .base_rates import CIWTable, base_rate_arrays
from .datasets import (
    GenConfig,
    generate_dataset,
    load_ciw_config,
    load_dataset,
    load_validation,
    random_ciw_table,
    samples_to_arrays,
    save_ciw_config,
    save_dataset,
)
from .errors import ConfigError, DataFormatError, TrainingDiverged
from .evaluation import (
    DEFAULT_THRESHOLD,
    MAX_AGGREGATION,
    MetricsReport,
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
    DEFAULT_FEATURE_DIM,
    DEFAULT_HIDDEN,
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


def _parse_hidden(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        sizes = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ConfigError(f"--hidden must be comma-separated integers, got {text!r}") from None
    if any(s < 1 for s in sizes):
        raise ConfigError(f"hidden layer sizes must be >= 1, got {text!r}")
    return sizes


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


def _check_prediction_flags(args) -> None:
    if not (args.prior_weight > 0 and math.isfinite(args.prior_weight)):
        raise ConfigError(f"--prior-weight must be finite and > 0, got {args.prior_weight}")
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"--threshold must be in [0, 1], got {threshold}")


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
    _check_prediction_flags(args)
    split = load_dataset(args.data)
    ciw = _align_ciw(load_ciw_config(args.ciw), split.known_classes)
    if not split.train:
        raise DataFormatError("train split has no samples to fit")
    _, x, y, _ = samples_to_arrays(split.train, split.k_known, split.dim)

    defaults = {}
    if args.freeze_backbone:
        defaults = {"epochs": FINETUNE_EPOCHS, "learning_rate": FINETUNE_LR}
    config = TrainConfig(**defaults | _config_values(TrainConfig, args))

    if args.init_from and not args.freeze_backbone:
        raise ConfigError("--init-from is only supported together with --freeze-backbone")
    if args.freeze_backbone:
        if not args.init_from:
            raise ConfigError("--freeze-backbone requires --init-from CHECKPOINT")
        for flag, value in (("--hidden", args.hidden), ("--feature-dim", args.feature_dim)):
            if value is not None:
                raise ConfigError(
                    f"{flag} cannot be combined with --freeze-backbone: the backbone "
                    "comes from the --init-from checkpoint"
                )
        mlp, old_head = load_checkpoint(args.init_from)
        _check_model_matches(mlp, old_head, split.dim, split.k_known)
        head = init_head(mlp.dim_out, split.k_known, config.seed)
        result = finetune_head(mlp, head, x, y, config, ciw, prior_weight=args.prior_weight)
    else:
        hidden = DEFAULT_HIDDEN if args.hidden is None else _parse_hidden(args.hidden)
        feature_dim = DEFAULT_FEATURE_DIM if args.feature_dim is None else args.feature_dim
        result = train_model(
            x, y, config, ciw,
            hidden=hidden, feature_dim=feature_dim, prior_weight=args.prior_weight,
        )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / CHECKPOINT_FILENAME, result.mlp, result.head)
    log = {
        "command": "train",
        "config": {
            "data": args.data,
            "ciw": args.ciw,
            **asdict(config),
            "hidden": result.mlp.hidden,
            "feature_dim": result.mlp.dim_out,
            "prior_weight": args.prior_weight,
            "freeze_backbone": bool(args.freeze_backbone),
            "init_from": args.init_from,
        },
        "epoch_losses": [float(v) for v in result.epoch_losses],
        "final_loss": float(result.epoch_losses[-1]) if result.epoch_losses else None,
    }
    write_text(out / TRAIN_LOG_FILENAME,
               yaml.safe_dump(log, sort_keys=True, default_flow_style=False))
    if result.epoch_losses:
        print(f"trained {config.epochs} epochs; final mean loss {result.epoch_losses[-1]:.6f}")
    else:
        print("trained 0 epochs; checkpoint holds the seeded initialization")
    print(f"checkpoint: {args.out}/{CHECKPOINT_FILENAME}")
    print(f"training log: {args.out}/{TRAIN_LOG_FILENAME}")
    return 0


def cmd_eval(args) -> int:
    _check_prediction_flags(args)
    mlp, head = load_checkpoint(args.checkpoint)
    known_classes, validation = load_validation(args.data)
    k_known, dim = len(known_classes), validation.x.shape[1]
    _check_model_matches(mlp, head, dim, k_known)
    ciw = _align_ciw(load_ciw_config(args.ciw), known_classes)

    known = validation[~validation.unknown]
    n_unknown = len(validation) - len(known)
    if not known:
        raise DataFormatError("validation split has no known samples to score")
    _, x, y, _ = samples_to_arrays(known, k_known, dim)

    a_pos, a_neg = base_rate_arrays(ciw)
    evidence = batch_evidence(mlp, head, x)
    batch = predict_batch(
        evidence, a_pos, a_neg, prior_weight=args.prior_weight, threshold=args.threshold
    )
    f1 = f1_normal(batch.labels, y)
    f2 = f2_ciw(batch.labels, y, ciw)
    rows = per_class_f2(batch.labels, y)
    per_class = tuple(
        (name, p, r, f2k, w)
        for (name, w), (p, r, f2k) in zip(ciw.entries, rows)
    )
    report = MetricsReport(
        f1_normal=f1, f2_ciw=f2,
        num_known=len(known), num_unknown=n_unknown,
        per_class=per_class,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = {name: getattr(args, name)
              for name in ("checkpoint", "data", "ciw", "threshold", "prior_weight")}
    write_text(out / EVAL_REPORT_FILENAME, render_report(report, "msdc", config))
    print(f"known-class evaluation on {len(known)} samples "
          f"({n_unknown} unknown samples excluded)")
    print(f"F1_Normal: {f1:.4f}")
    print(f"F2_CIW:    {f2:.4f}")
    print(f"report: {args.out}/{EVAL_REPORT_FILENAME}")
    return 0


def cmd_ood(args) -> int:
    _check_prediction_flags(args)
    mlp, head = load_checkpoint(args.checkpoint)
    known_classes, validation = load_validation(args.data)
    k_known, dim = len(known_classes), validation.x.shape[1]
    _check_model_matches(mlp, head, dim, k_known)
    agg = parse_aggregation(args.agg)

    unknown = validation.unknown
    if not unknown.any():
        raise DataFormatError("validation split contains no unknown samples; nothing to detect")
    if unknown.all():
        raise DataFormatError("validation split contains no known samples to rank against")
    ids, x, _, flags = samples_to_arrays(validation, k_known, dim)

    # base rates do not enter the vacuity u = W / S, so uniform ones suffice
    uniform = np.full(k_known, 0.5)
    evidence = batch_evidence(mlp, head, x)
    batch = predict_batch(evidence, uniform, uniform, prior_weight=args.prior_weight, agg=agg)
    scores = batch.uncertainty

    report = MetricsReport(
        auroc=auroc(scores, flags),
        aupr=aupr(scores, flags),
        fpr95=fpr_at_95_tpr(scores, flags),
        num_known=int((~flags).sum()),
        num_unknown=int(flags.sum()),
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = {
        "checkpoint": args.checkpoint,
        "data": args.data,
        "aggregation": str(agg),
        "prior_weight": args.prior_weight,
    }
    write_text(out / OOD_REPORT_FILENAME, render_report(report, "ood", config))
    write_scores_csv(out / OOD_SCORES_FILENAME, ids, scores, flags)
    print(f"unknown detection over {len(ids)} validation samples "
          f"({report.num_unknown} unknown), aggregation {agg}")
    print(f"AUROC: {report.auroc:.4f}")
    print(f"AUPR:  {report.aupr:.4f}")
    print(f"FPR95: {report.fpr95:.4f}")
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
    flag("--batch-size")
    flag("--lr", "learning_rate", default=None,
         help=f"default {TrainConfig.learning_rate}, or {FINETUNE_LR} with --freeze-backbone")
    flag("--lr-decay-ratio")
    flag("--lr-decay-every")
    flag("--weight-decay")
    flag("--seed")
    # None until given, so that a frozen refit can reject them
    tr.add_argument("--hidden", help="comma-separated hidden layer sizes")
    tr.add_argument("--feature-dim", type=int)
    tr.add_argument("--prior-weight", type=float, default=DEFAULT_PRIOR_WEIGHT)
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
    ev.add_argument("--prior-weight", type=float, default=DEFAULT_PRIOR_WEIGHT)
    ev.set_defaults(func=cmd_eval)

    ood = sub.add_parser("ood", help="rank unknown validation samples by uncertainty")
    ood.add_argument("--checkpoint", required=True)
    ood.add_argument("--data", required=True)
    ood.add_argument("--out", required=True)
    ood.add_argument("--agg", default=str(MAX_AGGREGATION),
                     help="uncertainty aggregation: max, sum, or topN")
    ood.add_argument("--prior-weight", type=float, default=DEFAULT_PRIOR_WEIGHT)
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
