"""Cost accounting, norm-weight profiles, and normalized-image composites.

Parameter and multiply-accumulate counts are read from a weightless build
of the model's own modules, ``MVFormer(cfg, None)``.  MAC convention: one
multiply-accumulate per kernel tap per output element, per single image;
biases, normalizations, activations, and residual additions are excluded.
The decayed parameters are exactly the conv and dense kernels, so a row's
MACs are their size times the area of the map the row writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MVFormer, stage_map_sizes
from .norm import DegenerateInputError, MultiViewNorm, PlainNorm
from .tensor import Tensor, grad_enabled


# -- parameter / MAC accounting ------------------------------------------------


@dataclass(frozen=True)
class CostRow:
    name: str
    params: int
    macs: int


@dataclass(frozen=True)
class CostReport:
    rows: tuple[CostRow, ...]
    input_hw: int

    @property
    def total_params(self):
        return sum(r.params for r in self.rows)

    @property
    def total_macs(self):
        return sum(r.macs for r in self.rows)

    def csv_text(self):
        lines = ["name,params,macs"]
        lines += [f"{r.name},{r.params},{r.macs}" for r in self.rows]
        lines.append(f"total,{self.total_params},{self.total_macs}")
        return "\n".join(lines) + "\n"

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.csv_text())

    def format_table(self):
        width = max(len(r.name) for r in self.rows) + 2
        lines = [f"{'module'.ljust(width)}{'params':>12}  {'macs':>14}"]
        for r in self.rows:
            lines.append(f"{r.name.ljust(width)}{r.params:>12,}  {r.macs:>14,}")
        lines.append(
            f"{'total'.ljust(width)}{self.total_params:>12,}  {self.total_macs:>14,}"
        )
        lines.append(
            f"params = {self.total_params / 1e6:.2f}M, macs = {self.total_macs / 1e9:.2f}G "
            f"at {self.input_hw}x{self.input_hw}"
        )
        return "\n".join(lines)


def _row(name, params, area):
    """One row: the parameters' sizes, and the decayed ones (the kernels) times the output area."""
    return CostRow(name, sum(p.data.size for p in params), area * sum(p.data.size for p in params if p.decay))


def cost_report(cfg, input_hw=224):
    """Per-module parameter and MAC breakdown for one (`ModelConfig`, resolution)."""
    sizes = stage_map_sizes(input_hw)
    model = MVFormer(cfg, None)
    rows, counted = [], set()
    for stage, (embed, blocks, side) in enumerate(zip(model.embeds, model.stages, sizes), 1):
        for name, modules in ((f"embed{stage}", (embed,)), (f"stage{stage}_blocks", blocks)):
            params = [p for module in modules for _, p in module.named_parameters()]
            counted.update(id(p) for p in params)
            rows.append(_row(name, params, side * side))
    # the head is every parameter not in a stage's rows, at area 1
    rows.append(_row("head", [p for _, p in model.named_parameters() if id(p) not in counted], 1))
    return CostReport(tuple(rows), input_hw)


# -- norm-weight profile ----------------------------------------------------------


@dataclass(frozen=True)
class AlphaRow:
    stage: int
    block_index: int
    norm_site: str  # mixer | mlp
    mean_alpha_bn: float
    mean_alpha_ln: float
    mean_alpha_in: float


@dataclass(frozen=True)
class AlphaProfile:
    rows: tuple[AlphaRow, ...]

    def csv_text(self):
        lines = ["stage,block_index,norm_site,mean_alpha_bn,mean_alpha_ln,mean_alpha_in"]
        for r in self.rows:
            lines.append(
                f"{r.stage},{r.block_index},{r.norm_site},"
                f"{r.mean_alpha_bn:.8g},{r.mean_alpha_ln:.8g},{r.mean_alpha_in:.8g}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.csv_text())


def dump_alpha_profile(model):
    """Channel-mean of each view weight, one row per block norm site."""
    rows = []
    for stage, block_index, site, norm in model.mvn_sites():
        if not isinstance(norm, MultiViewNorm):
            raise ValueError(
                f"model block norms are {type(norm).__name__}; no multi-view weights to dump"
            )
        rows.append(
            AlphaRow(
                stage,
                block_index,
                site,
                float(norm.alpha_bn.data.mean()),
                float(norm.alpha_ln.data.mean()),
                float(norm.alpha_in.data.mean()),
            )
        )
    return AlphaProfile(tuple(rows))


# -- normalized-image composites -----------------------------------------------------


@dataclass(frozen=True)
class NormalizedImages:
    """Pre-rescale normalized buffers, each (n, c, h, w) float32."""

    bn: np.ndarray
    ln: np.ndarray
    inorm: np.ndarray
    composite: np.ndarray


def normalize_image_grid(images, weights):
    """Apply the three normalizations to raw pixels, plus their weighted sum.

    `images` is a batch (n >= 2, BN needs cross-image statistics) of values
    in [0, 1]; no affine is applied.  The returned buffers are not display
    rescaled; use `display_u8` when writing them out.
    """
    arr = images.data if isinstance(images, Tensor) else np.asarray(images, dtype=np.float32)
    if arr.ndim != 4:
        raise ValueError(f"images must be (n, c, h, w); got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DegenerateInputError(
            "batch normalization of raw images needs at least two input images "
            f"(its statistics are computed across >= 2 images), got {arr.shape[0]}"
        )
    x = Tensor(arr)
    with grad_enabled(False):  # each layer at its initial affine: gamma = 1, beta = 0
        bn, ln, inorm = [PlainNorm(arr.shape[1], k).forward(x, training=True).data for k in ("bn", "ln", "in")]
    w_bn, w_ln, w_in = (np.float32(w) for w in weights)
    composite = w_bn * bn + w_ln * ln + w_in * inorm
    return NormalizedImages(bn, ln, inorm, composite)


def display_rescale(arr):
    """Min-max rescale each image of a batch to [0, 1]; flat images go to 0."""
    lo = arr.min(axis=(1, 2, 3), keepdims=True)
    hi = arr.max(axis=(1, 2, 3), keepdims=True)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    out = (arr - lo) / safe
    return np.where(span > 0, out, 0.0).astype(np.float32)


def display_u8(arr):
    """Pre-rescale buffer -> uint8 pixels for PPM output."""
    scaled = display_rescale(arr)
    return np.clip(np.rint(scaled * 255.0), 0, 255).astype(np.uint8)
