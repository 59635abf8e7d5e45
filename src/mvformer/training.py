"""Desk-scale training: config file, smoothed cross-entropy, the loop.

The run recipe mirrors the reference large-scale setup (AdamW, cosine decay
with linear warmup, label smoothing, stochastic depth) at synthetic-data
scale.  Heavy augmentation (RandAugment / Mixup / CutMix / erasing) is data
plumbing and intentionally absent; see ``configs/paper.cfg`` for the
documented full-scale profile.
"""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass

import numpy as np

from .checkpoint import CheckpointFormatError, save_checkpoint
from .data import SyntheticDataset, SyntheticSpec
from .mixer import ConfigError
from .model import ModelConfig, build_model, model_config, stage_map_sizes
from .optim import AdamW, NumericsError, cosine_lr
from .tensor import backward, cross_entropy


# -- loss -----------------------------------------------------------


def smoothed_targets(targets, classes, smoothing, dtype):
    """The (n, `classes`, 1, 1) target rows ``(1-eps)*onehot + eps/K`` of integer labels (n,).

    Unchecked: `ce_label_smoothing` validates its arguments and then calls this.
    """
    n = len(targets)
    q = np.full((n, classes, 1, 1), smoothing / classes, dtype=dtype)
    q[np.arange(n), targets, 0, 0] += 1.0 - smoothing
    return q


def ce_label_smoothing(logits, targets, smoothing=0.0):
    """Mean cross-entropy against (1-eps)*onehot + eps/K targets (`smoothed_targets`).

    `logits` is (n, K, 1, 1); the loss is one ``tensor.cross_entropy`` node.
    """
    n, k = logits.shape[0], logits.shape[1]
    if k < 2:
        raise ValueError(f"cross-entropy needs >= 2 classes, got {k}")
    if not 0.0 <= smoothing < 1.0:
        raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise ValueError(f"targets must be shape ({n},), got {targets.shape}")
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise IndexError(f"target labels must lie in [0, {k})")
    return cross_entropy(logits, smoothed_targets(targets, k, smoothing, logits.dtype))


# -- configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults; every field maps to one config-file key.

    Batching policy: training and evaluation indices are cut into
    ``batch_size`` chunks, and a trailing chunk of one sample is folded into
    the chunk before it (so the last step sees ``batch_size + 1`` samples).
    A single image has no batch statistics at the last stage (n*h*w = 1 at
    32x32), so the batch-statistics norms ``mvn`` and ``bn`` also require
    ``batch_size >= 2`` and ``train_size >= 2``.  The schedule's step count
    counts folded batches.  Plain instance norm draws statistics over each
    map alone, so ``in`` rejects an ``image_size`` whose last stage runs on
    a 1x1 map (32x32 does; 35x35 and up do not).
    """

    # [model]
    preset: str = "micro"
    norm: str = "mvn"
    drop_path_rate: float | None = None  # None -> preset default
    embed_dims: tuple[int, ...] | None = None
    depths: tuple[int, ...] | None = None
    # [train]
    epochs: int = 30
    batch_size: int = 64
    base_lr: float = 1e-3
    warmup_epochs: int = 2
    weight_decay: float = 0.05
    label_smoothing: float = 0.1
    seed: int = 0
    # [data]
    classes: int = 4
    image_size: int = 32
    train_size: int = 512
    val_size: int = 256
    noise: float = 0.05

    def __post_init__(self):
        if self.warmup_epochs < 0:
            raise ConfigError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ConfigError(
                f"warmup_epochs ({self.warmup_epochs}) must be < epochs ({self.epochs}); "
                "lower warmup_epochs under [train] in a --config file"
            )
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if self.batch_size < 1 or self.epochs < 0 or self.train_size < 1:
            raise ConfigError("batch_size and train_size must be >= 1 and epochs >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("base_lr", "weight_decay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if self.norm in ("mvn", "bn") and min(self.batch_size, self.train_size) < 2:
            raise ConfigError(
                f"norm {self.norm!r} draws batch statistics: batch_size ({self.batch_size}) "
                f"and train_size ({self.train_size}) must be >= 2"
            )
        if self.norm == "in" and stage_map_sizes(self.image_size)[-1] < 2:
            raise ConfigError(
                f"norm 'in' needs >= 2 positions per map, but image_size {self.image_size} "
                "leaves a 1x1 map at stage 4"
            )
        # the model and data parts validate too, so a run fails before it creates anything
        resolve_model_config(self)
        resolve_data_spec(self)


# Each config-file section and the TrainConfig fields it sets; every field is in exactly one.
_SECTIONS = {
    "model": ("preset", "norm", "drop_path_rate", "embed_dims", "depths"),
    "train": ("epochs", "batch_size", "base_lr", "warmup_epochs", "weight_decay", "label_smoothing", "seed"),
    "data": ("classes", "image_size", "train_size", "val_size", "noise"),
}


def _int_tuple(text):
    return tuple(int(v) for v in text.split(","))


def _parser(annotation):
    """The text parser of a field's type: ``X | None`` parses as X, a tuple as comma-separated ints."""
    if typing.get_origin(annotation) is tuple:
        return _int_tuple
    kinds = [kind for kind in typing.get_args(annotation) if kind is not type(None)]
    return _parser(kinds[0]) if kinds else annotation  # int, float and str parse as themselves


def _parsers(cls):
    """{field: text parser} of a config dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: _parser(hints[f.name]) for f in dataclasses.fields(cls)}


def _format(value):
    """A metadata value as text; `_parsers` reads it back."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


_CONFIG_PARSERS = _parsers(TrainConfig)
# data.<field> for every SyntheticSpec field; all are TrainConfig fields too (its seed is [train] seed)
_DATA_PARSERS = _parsers(SyntheticSpec)
_MODEL_PARSERS = _parsers(ModelConfig)
# model.<field> for every ModelConfig field, but block_norm is written model.norm;
# every key is required but model.ablation, which is written only when set
_MODEL_KEYS = {**{field: f"model.{field}" for field in _MODEL_PARSERS}, "block_norm": "model.norm"}


def parse_config_text(text):
    """Parse the flat key=value format with [section] headers; unknown or repeated keys are errors."""
    section = None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {value!r}") from exc
    return TrainConfig(**values)


def parse_config(path):
    """Parse a UTF-8 config file (a leading byte-order mark is skipped)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {os.fspath(path)!r} is not UTF-8 text: {exc}") from exc
    return parse_config_text(text)


def resolve_model_config(cfg):
    names = [name for name in _SECTIONS["model"] if name in _MODEL_PARSERS]  # the preset's overrides
    overrides = {name: getattr(cfg, name) for name in names if getattr(cfg, name) is not None}
    return model_config(cfg.preset, num_classes=cfg.classes, block_norm=cfg.norm, **overrides)


def resolve_data_spec(cfg):
    return SyntheticSpec(**{key: getattr(cfg, key) for key in _DATA_PARSERS})


# -- checkpoint metadata ----------------------------------------------------------


def model_meta(mc):
    values = {key: getattr(mc, field) for field, key in _MODEL_KEYS.items()}
    return {key: _format(value) for key, value in values.items() if value is not None}


def _parse_meta(meta, key, parse):
    try:
        return parse(meta[key])
    except ValueError as exc:
        raise CheckpointFormatError(f"checkpoint meta {key!r} has a bad value: {meta[key]!r}") from exc


def model_from_meta(meta):
    """ModelConfig from checkpoint metadata; a missing or unparsable key raises CheckpointFormatError."""
    fields = {}
    for field, key in _MODEL_KEYS.items():
        if key in meta:
            fields[field] = _parse_meta(meta, key, _MODEL_PARSERS[field])
        elif key != "model.ablation":
            raise CheckpointFormatError(f"checkpoint meta lacks {key!r}")
    return ModelConfig(**fields)


def data_meta(spec):
    return {f"data.{key}": _format(getattr(spec, key)) for key in _DATA_PARSERS}


def data_from_meta(meta, overrides=None):
    """SyntheticSpec from metadata; a missing key takes the spec's default, an unparsable one
    raises CheckpointFormatError."""
    fields = {key: _parse_meta(meta, f"data.{key}", parse) for key, parse in _DATA_PARSERS.items()
              if f"data.{key}" in meta}
    return SyntheticSpec(**{**fields, **(overrides or {})})


def parse_data_overrides(text):
    """'classes=4,image_size=32' -> typed override dict for SyntheticSpec."""
    out = {}
    for item in filter(None, (part.strip() for part in text.split(","))):
        key, eq, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if not eq or key not in _DATA_PARSERS:
            raise ConfigError(f"bad data spec item {item!r}; keys: {list(_DATA_PARSERS)}")
        if key in out:
            raise ConfigError(f"duplicate --data key {key!r}")
        try:
            out[key] = _DATA_PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for --data key {key!r}: {value!r}") from exc
    return out


# -- evaluation / training loop -------------------------------------------------------


def _batches(indices, batch_size):
    """Chunks of `batch_size`; a size-1 remainder joins the chunk before it."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    indices = np.asarray(indices)
    count = len(indices)
    starts = list(range(0, count, batch_size))
    if batch_size > 1 and len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    return [indices[a:b] for a, b in zip(starts, starts[1:] + [count])]


def evaluate(model, dataset, indices, batch_size=64):
    """Inference-mode accuracy over `indices` (frozen batch-norm statistics).

    Its eval-mode forwards record no autodiff tape (see ``MVFormer.forward``).
    """
    correct = 0
    total = 0
    for chunk in _batches(indices, batch_size):
        images, labels = dataset.batch(chunk)
        logits = model.forward(images, training=False)
        pred = np.argmax(logits.data, axis=1).reshape(-1)
        correct += int((pred == labels).sum())
        total += len(chunk)
    return correct / total if total else 0.0


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    lr: float
    train_loss: float
    train_acc: float
    val_acc: float

    def csv_line(self):
        return (
            f"{self.epoch},{self.lr:.8g},{self.train_loss:.8g},"
            f"{self.train_acc:.8g},{self.val_acc:.8g}"
        )


METRICS_HEADER = "epoch,lr,train_loss,train_acc,val_acc"


def train_loop(model, dataset, cfg, out_dir):
    """Run the recipe; writes metrics.csv, last.ckpt, best.ckpt under out_dir.

    Deterministic in single-threaded mode: same config and seed give
    byte-identical metrics and checkpoints.  A non-finite loss or gradient
    aborts with the last epoch checkpoint retained on disk.
    """
    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.csv")
    last_path = os.path.join(out_dir, "last.ckpt")
    best_path = os.path.join(out_dir, "best.ckpt")

    opt = AdamW(list(model.named_parameters()), weight_decay=cfg.weight_decay)
    steps_per_epoch = len(_batches(range(cfg.train_size), cfg.batch_size))
    total_steps = max(1, cfg.epochs * steps_per_epoch)
    warmup_steps = cfg.warmup_epochs * steps_per_epoch
    shuffle_rng = np.random.default_rng((cfg.seed, 101))
    drop_rng = np.random.default_rng((cfg.seed, 202))

    meta = {**model_meta(model.cfg), **data_meta(dataset.spec), "train.seed": str(cfg.seed)}
    save_checkpoint(last_path, model, opt, {**meta, "train.epoch": "0"})
    save_checkpoint(best_path, model, opt, {**meta, "train.epoch": "0"})

    history = []
    best_val = -1.0
    step = 0
    with open(metrics_path, "w", encoding="utf-8", newline="\n") as metrics:
        metrics.write(METRICS_HEADER + "\n")
        for epoch in range(1, cfg.epochs + 1):
            perm = shuffle_rng.permutation(np.asarray(dataset.train_indices))
            loss_sum = 0.0
            correct = 0
            seen = 0
            lr = 0.0
            for chunk in _batches(perm, cfg.batch_size):
                images, labels = dataset.batch(chunk)
                model.zero_grad()
                logits = model.forward(images, training=True, rng=drop_rng)
                loss = ce_label_smoothing(logits, labels, cfg.label_smoothing)
                loss_value = loss.item()
                if not math.isfinite(loss_value):
                    raise NumericsError(
                        f"non-finite loss at epoch {epoch}; last checkpoint kept at {last_path}"
                    )
                pred = np.argmax(logits.data, axis=1).reshape(-1)
                del logits  # nothing may hold this step's tape into the next forward
                backward(loss)
                del loss
                lr = cosine_lr(step, total_steps, warmup_steps, cfg.base_lr)
                opt.step(lr)
                step += 1
                loss_sum += loss_value * len(chunk)
                correct += int((pred == labels).sum())
                seen += len(chunk)
            val_acc = evaluate(model, dataset, dataset.val_indices, cfg.batch_size)
            row = EpochRow(epoch, lr, loss_sum / seen, correct / seen, val_acc)
            history.append(row)
            metrics.write(row.csv_line() + "\n")
            metrics.flush()
            save_checkpoint(last_path, model, opt, {**meta, "train.epoch": str(epoch)})
            if val_acc >= best_val:
                best_val = val_acc
                save_checkpoint(best_path, model, opt, {**meta, "train.epoch": str(epoch)})
    return history


def run_training(cfg, out_dir):
    """Build model + dataset from a TrainConfig and train; returns history."""
    model = build_model(resolve_model_config(cfg), seed=cfg.seed)
    dataset = SyntheticDataset(resolve_data_spec(cfg))
    return train_loop(model, dataset, cfg, out_dir)
