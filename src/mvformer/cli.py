"""Command-line entry point.

Subcommands: count, ablate-count, train, eval, gradcheck, norm-image,
dump-alphas.  Exit codes are a stable contract: 0 success, 1 verification
failure, 2 usage or input error, 3 numeric abort.  Commands that draw
random numbers print the seed on their first output line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import cost_report, display_u8, dump_alpha_profile, normalize_image_grid
from .checkpoint import load_checkpoint, read_meta
from .data import SyntheticDataset
from .gradcheck import CHECKS, DEFAULT_TOLERANCE, run_checks
from .imageio import read_ppm, write_ppm
from .mixer import ABLATION_MODES, ConfigError
from .model import PRESETS, build_model, model_config
from .optim import NumericsError
from .training import (
    TrainConfig,
    data_from_meta,
    evaluate,
    model_from_meta,
    parse_config,
    parse_data_overrides,
    run_training,
)

# every named input error of the package (config, checkpoint, image, shape) is a ValueError;
# a path that cannot be read or written is an OSError
_INPUT_ERRORS = (ValueError, OSError)


def _cmd_count(args):
    """count, and ablate-count when `args.ablation` is set."""
    rep = cost_report(model_config(args.preset, ablation=args.ablation), args.input_size)
    if args.csv:  # before any output, so an unwritable path prints nothing
        rep.to_csv(args.csv)
    if args.ablation is not None:
        print(f"ablation: {args.ablation}")
    print(rep.format_table())
    if args.csv:
        print(f"wrote {args.csv}")
    return 0


def _cmd_train(args):
    cfg = parse_config(args.config) if args.config else TrainConfig()
    flags = {name: getattr(args, name) for name in ("epochs", "seed", "preset")}
    cfg = replace(cfg, **{name: value for name, value in flags.items() if value is not None})
    os.makedirs(args.out, exist_ok=True)  # before any output or work, so an unusable --out fails first
    print(f"seed: {cfg.seed}")
    history = run_training(cfg, args.out)
    if history:
        last = history[-1]
        print(
            f"epoch {last.epoch}: train_loss={last.train_loss:.4f} "
            f"train_acc={last.train_acc:.4f} val_acc={last.val_acc:.4f}"
        )
    print(f"metrics: {os.path.join(args.out, 'metrics.csv')}")
    print(f"checkpoints: {os.path.join(args.out, 'last.ckpt')} / best.ckpt")
    return 0


def _load_model(path):
    """The checkpoint's metadata and the model it describes, holding its stored weights."""
    meta = read_meta(path)
    model = build_model(model_from_meta(meta), seed=0)
    load_checkpoint(path, model)
    return meta, model


def _cmd_eval(args):
    meta, model = _load_model(args.checkpoint)
    overrides = parse_data_overrides(args.data) if args.data else None
    spec = data_from_meta(meta, overrides)
    if spec.classes != model.cfg.num_classes:  # a head of num_classes scores labels in [0, classes)
        raise ConfigError(
            f"data classes ({spec.classes}) must match the checkpoint's model.num_classes "
            f"({model.cfg.num_classes})"
        )
    dataset = SyntheticDataset(spec)
    acc = evaluate(model, dataset, dataset.val_indices, args.batch_size)
    print(f"val_acc: {acc:.8g}")
    return 0


def _cmd_gradcheck(args):
    rows = run_checks(args.module, args.seed)
    print(f"seed: {args.seed}")
    width = max(len(f"{g}.{p}") for g, p, _ in rows) + 2
    failures = []
    for group, param, err in rows:
        status = "ok" if err < DEFAULT_TOLERANCE else "FAIL"
        print(f"{(group + '.' + param).ljust(width)}{err:.3e}  {status}")
        if err >= DEFAULT_TOLERANCE:
            failures.append((group, param, err))
    if failures:
        worst = max(failures, key=lambda r: r[2])
        print(
            f"FAILED: {len(failures)} parameter group(s) above {DEFAULT_TOLERANCE:g}; "
            f"worst {worst[0]}.{worst[1]} = {worst[2]:.3e}",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(rows)} parameter groups within {DEFAULT_TOLERANCE:g}")
    return 0


def _parse_weights(text):
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise ValueError(f"--weights needs three comma-separated values, got {text!r}")
    weights = tuple(float(p) for p in parts)
    if not all(map(math.isfinite, weights)):
        raise ValueError(f"--weights must be finite, got {text!r}")
    return weights


def _cmd_norm_image(args):
    weights = _parse_weights(args.weights)
    stems = []
    pixels = []
    for path in args.inputs:
        img = read_ppm(path)
        stems.append(os.path.splitext(os.path.basename(path))[0])
        pixels.append(img.transpose(2, 0, 1).astype(np.float32) / 255.0)
    shapes = {p.shape for p in pixels}
    if len(shapes) != 1:
        raise ValueError(f"input images disagree on shape: {sorted(shapes)}")
    grid = normalize_image_grid(np.stack(pixels), weights)
    os.makedirs(args.out, exist_ok=True)
    outputs = {
        "bn": display_u8(grid.bn),
        "ln": display_u8(grid.ln),
        "in": display_u8(grid.inorm),
        "mvn": display_u8(grid.composite),
    }
    for i, stem in enumerate(stems):
        for kind, batch in outputs.items():
            path = os.path.join(args.out, f"{stem}_{kind}.ppm")
            write_ppm(path, batch[i].transpose(1, 2, 0))
            print(f"wrote {path}")
    return 0


def _cmd_dump_alphas(args):
    _, model = _load_model(args.checkpoint)
    profile = dump_alpha_profile(model)
    if args.csv:
        profile.to_csv(args.csv)
        print(f"wrote {args.csv}")
    else:
        sys.stdout.write(profile.csv_text())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvformer",
        description="Multi-view normalization / token-mixer backbone toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="parameter and MAC report for a preset")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--input-size", type=int, default=224)
    p.add_argument("--csv", help="also write the breakdown as CSV")
    p.set_defaults(func=_cmd_count, ablation=None)

    p = sub.add_parser("ablate-count", help="cost report for a mixer ablation")
    p.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p.add_argument("--ablation", required=True, choices=ABLATION_MODES)
    p.add_argument("--input-size", type=int, default=224)
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("train", help="train on the synthetic dataset")
    p.add_argument("--config", help="key=value config file (defaults apply if omitted)")
    p.add_argument("--out", required=True, help="output directory for metrics and checkpoints")
    p.add_argument("--epochs", type=int, help="override config epochs")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--preset", choices=sorted(PRESETS), help="override config preset")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on its validation split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="override dataset fields, e.g. classes=4,image_size=32")
    p.add_argument("--batch-size", type=int, default=64)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--module", default="all", choices=["all", *CHECKS])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("norm-image", help="write BN/LN/IN/composite images for a batch")
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="PPM")
    p.add_argument("--weights", default="0.333,0.333,0.333", help="w_bn,w_ln,w_in")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_norm_image)

    p = sub.add_parser("dump-alphas", help="CSV of channel-mean view weights per norm site")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--csv", help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_dump_alphas)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
