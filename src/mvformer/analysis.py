"""Cost accounting, norm-weight profiles, and normalized-image composites.

Parameter and multiply-accumulate counts are computed symbolically from a
``ModelConfig``, with no weights allocated, by walking the same
construction rules the model builder uses.  MAC convention: one
multiply-accumulate per kernel tap per output element, per single image;
biases, normalizations, activations, and residual additions are excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DOWN_GEOMETRY, HEAD_MLP_RATIO, RES_SCALE_STAGES, STEM_GEOMETRY, stage_map_sizes
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


def _norm_params(kind, channels):
    # multi-view: three view weights + affine; single view: affine only
    return 5 * channels if kind == "mvn" else 2 * channels


def _mixer_costs(spec, hw):
    c, e = spec.channels, spec.expanded
    groups = spec.depthwise_groups
    taps = sum(channels * kh * kw for _, channels, kernels in groups for _, (kh, kw) in kernels)
    biases = sum(channels for _, channels, _ in groups)
    params = e * c + e + 2 + taps + biases + c * e + c  # pw1, StarReLU scalars, depthwise, pw2
    macs = (e * c + taps + c * e) * hw
    return params, macs


def _block_costs(cfg, stage, hw):
    c = cfg.embed_dims[stage - 1]
    spec = cfg.stage_spec(stage)
    params = 2 * _norm_params(cfg.block_norm, c)
    mix_p, mix_m = _mixer_costs(spec, hw)
    params += mix_p
    hidden = cfg.mlp_ratio * c
    params += hidden * c + hidden + 2 + c * hidden + c  # MLP + its StarReLU
    if stage in RES_SCALE_STAGES:
        params += 2 * c
    macs = mix_m + 2 * hidden * c * hw
    return params, macs


def cost_report(cfg, input_hw=224):
    """Per-module parameter and MAC breakdown for one (`ModelConfig`, resolution)."""
    rows = []
    cin = cfg.input_channels
    for stage, size in zip((1, 2, 3, 4), stage_map_sizes(input_hw)):
        cout = cfg.embed_dims[stage - 1]
        k = (STEM_GEOMETRY if stage == 1 else DOWN_GEOMETRY)[0]
        params = k * k * cin * cout + cout
        if stage > 1:
            params += _norm_params(cfg.block_norm, cin)
        macs = cout * size * size * cin * k * k
        rows.append(CostRow(f"embed{stage}", params, macs))
        hw = size * size
        bp, bm = _block_costs(cfg, stage, hw)
        depth = cfg.depths[stage - 1]
        rows.append(CostRow(f"stage{stage}_blocks", depth * bp, depth * bm))
        cin = cout
    c_last = cfg.embed_dims[3]
    hidden = HEAD_MLP_RATIO * c_last
    head_params = 2 * c_last  # pre-head layer norm
    head_params += hidden * c_last + hidden + 2 + cfg.num_classes * hidden + cfg.num_classes
    head_macs = hidden * c_last + cfg.num_classes * hidden
    rows.append(CostRow("head", head_params, head_macs))
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
