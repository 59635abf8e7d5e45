"""Multiscale depthwise token mixing with stage-specific receptive fields.

The mixer is an inverted separable convolution: pointwise expansion C -> 2C,
StarReLU, a depthwise stage, pointwise projection 2C -> C.  The depthwise
stage splits the expanded channels into three groups: local 3x3,
intermediate 7x7, and a global filter whose size shrinks with stage depth
(55 / 27 / 13 decomposed into a k x 1 then 1 x k pair, and a square 7x7 at
the last stage).  Channel shares per stage:

    stage 1   50 : 50 : 0
    stage 2   25 : 50 : 25
    stage 3   25 : 50 : 25
    stage 4    0 : 50 : 50

Empty groups own no kernels at all, so parameter and MAC counters see
exactly the filters that run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .module import Module
from .tensor import channel_concat, channel_split, conv2d, star_relu

# shared-per-site learnable activation scalars
STAR_RELU_SCALE = 0.8944
STAR_RELU_BIAS = -0.4472

GLOBAL_KERNELS = (55, 27, 13, 7)

ABLATION_MODES = (
    "no-stage-split",
    "no-stage-global",
    "no-stage-both",
    "drop-local",
    "drop-intermediate",
    "drop-global",
)


class ConfigError(ValueError):
    """Invalid stage geometry or channel arithmetic."""


class StarReLU(Module):
    """Squared ReLU with one learnable (scale, bias) pair per site, one tape node per call."""

    def __init__(self):
        super().__init__()
        self.scale = self.param("scale", np.full((1, 1, 1, 1), STAR_RELU_SCALE), decay=False)
        self.bias = self.param("bias", np.full((1, 1, 1, 1), STAR_RELU_BIAS), decay=False)

    def forward(self, x):
        return star_relu(x, self.scale, self.bias)


@dataclass(frozen=True)
class StageSpec:
    """Channel split and global-kernel geometry of one stage's mixer.

    Dims are measured on the expanded width 2C (`expanded`); they always
    sum to it.  `decomposed` selects the k x 1 / 1 x k factorized global
    filter; otherwise the global kernel is a square k x k.  Either way it
    pads k // 2, so the map keeps its size.
    """

    stage: int
    channels: int
    dim_local: int
    dim_inter: int
    dim_global: int
    global_kernel: int
    decomposed: bool

    @property
    def expanded(self):
        return 2 * self.channels

    def __post_init__(self):
        if self.dim_local + self.dim_inter + self.dim_global != self.expanded:
            raise ConfigError(
                f"stage {self.stage}: group dims {self.dim_local}/{self.dim_inter}/"
                f"{self.dim_global} must sum to the expanded width {self.expanded}"
            )
        if self.global_kernel % 2 == 0:
            raise ConfigError(f"global kernel must be odd, got {self.global_kernel}")


def make_stage_spec(stage, channels):
    """Stage-specific mixer geometry for a block of width `channels`."""
    if stage not in (1, 2, 3, 4):
        raise ConfigError(f"stage must be 1..4, got {stage}")
    expanded = 2 * channels
    if expanded % 4:
        raise ConfigError(
            f"expanded width 2*{channels} must be divisible by 4 to split channel groups"
        )
    split = expanded // 4
    return StageSpec(
        stage=stage,
        channels=channels,
        dim_local=split * (2 - stage // 2),
        dim_inter=split * 2,
        dim_global=split * (stage // 2),
        global_kernel=GLOBAL_KERNELS[stage - 1],
        decomposed=stage < 4,
    )


def ablate_spec(spec, mode):
    """Rewire a stage spec for the mixer ablations.

    Removing stage specificity applies the stage-2/3 split (25:50:25) or the
    stage-3 global size (13, decomposed) everywhere.  Removing the
    intermediate filter doubles the local and global shares; removing the
    local or global filter hands its share to the intermediate filter.
    """
    if mode not in ABLATION_MODES:
        raise ConfigError(f"unknown ablation {mode!r}; expected one of {ABLATION_MODES}")
    split = spec.expanded // 4
    if mode == "no-stage-split":
        return dataclasses.replace(spec, dim_local=split, dim_inter=2 * split, dim_global=split)
    if mode == "no-stage-global":
        return dataclasses.replace(spec, global_kernel=GLOBAL_KERNELS[2], decomposed=True)
    if mode == "no-stage-both":
        return ablate_spec(ablate_spec(spec, "no-stage-split"), "no-stage-global")
    if mode == "drop-local":
        return dataclasses.replace(spec, dim_local=0, dim_inter=spec.dim_inter + spec.dim_local)
    if mode == "drop-global":
        return dataclasses.replace(spec, dim_global=0, dim_inter=spec.dim_inter + spec.dim_global)
    # drop-intermediate
    return dataclasses.replace(
        spec, dim_local=2 * spec.dim_local, dim_inter=0, dim_global=2 * spec.dim_global
    )


def decomposed_depthwise_conv(x, w_h, w_v, bias=None):
    """Depthwise (k x 1) then (1 x k) convolution, shape-preserving.

    Equivalent to a full k x k depthwise convolution whose kernel is the
    outer product of the two vectors; bias (if any) rides on the second
    half so the pair adds a single constant offset per channel.
    """
    k = w_h.shape[2]
    if w_h.shape[3] != 1 or w_v.shape[2] != 1 or w_v.shape[3] != k:
        raise ConfigError(
            f"decomposed kernels must be (k,1) then (1,k); got {w_h.shape[2:]} and {w_v.shape[2:]}"
        )
    if k % 2 == 0:
        raise ConfigError(f"decomposed global kernel must be odd, got {k}")
    groups = x.shape[1]
    out = conv2d(x, w_h, None, stride=1, pad=(k // 2, 0), groups=groups)
    return conv2d(out, w_v, bias, stride=1, pad=(0, k // 2), groups=groups)


_INIT_CHUNK = 1 << 16  # float64 normals drawn at a time by _trunc_normal


def _trunc_normal(rng, shape, std=0.02):
    """Normal(0, std) resampled until within 2 std, like common ViT init.

    The float64 normals are drawn in chunks straight into the float32
    result, so no full-size float64 copy is ever held; the values, the
    redraw order and the generator's final state are those of one
    full-size draw.
    """
    out = np.empty(shape, np.float32)
    flat = out.reshape(-1)
    redraw = [np.empty(0, np.intp)]
    for start in range(0, flat.size, _INIT_CHUNK):
        chunk = rng.standard_normal(min(_INIT_CHUNK, flat.size - start)) * std
        flat[start : start + chunk.size] = chunk
        redraw.append(start + np.flatnonzero(np.abs(chunk) > 2 * std))
    redraw = np.concatenate(redraw)
    while redraw.size:
        values = rng.standard_normal(redraw.size) * std
        flat[redraw] = values
        redraw = redraw[np.abs(values) > 2 * std]
    return out


class TokenMixer(Module):
    """Inverted separable convolution with the three-way depthwise stage."""

    def __init__(self, spec, rng):
        super().__init__()
        self.spec = spec
        c, e = spec.channels, spec.expanded
        self.pw1_w = self.param("pw1_w", _trunc_normal(rng, (e, c, 1, 1)))
        self.pw1_b = self.param("pw1_b", np.zeros((1, e, 1, 1)), decay=False)
        self.act = self.child("act", StarReLU())
        if spec.dim_local:
            self.local_w = self.param("local_w", _trunc_normal(rng, (spec.dim_local, 1, 3, 3)))
            self.local_b = self.param("local_b", np.zeros((1, spec.dim_local, 1, 1)), decay=False)
        if spec.dim_inter:
            self.inter_w = self.param("inter_w", _trunc_normal(rng, (spec.dim_inter, 1, 7, 7)))
            self.inter_b = self.param("inter_b", np.zeros((1, spec.dim_inter, 1, 1)), decay=False)
        if spec.dim_global:
            k = spec.global_kernel
            if spec.decomposed:
                self.global_wh = self.param("global_wh", _trunc_normal(rng, (spec.dim_global, 1, k, 1)))
                self.global_wv = self.param("global_wv", _trunc_normal(rng, (spec.dim_global, 1, 1, k)))
            else:
                self.global_w = self.param("global_w", _trunc_normal(rng, (spec.dim_global, 1, k, k)))
            self.global_b = self.param("global_b", np.zeros((1, spec.dim_global, 1, 1)), decay=False)
        self.pw2_w = self.param("pw2_w", _trunc_normal(rng, (c, e, 1, 1)))
        self.pw2_b = self.param("pw2_b", np.zeros((1, c, 1, 1)), decay=False)

    def forward(self, x):
        spec = self.spec
        if x.shape[1] != spec.channels:
            raise ConfigError(f"mixer built for {spec.channels} channels, input has {x.shape[1]}")
        y = conv2d(x, self.pw1_w, self.pw1_b)
        y = self.act.forward(y)
        x_l, x_i, x_g = channel_split(y, (spec.dim_local, spec.dim_inter, spec.dim_global))
        mixed = []
        if spec.dim_local:
            mixed.append(conv2d(x_l, self.local_w, self.local_b, pad=1, groups=spec.dim_local))
        if spec.dim_inter:
            mixed.append(conv2d(x_i, self.inter_w, self.inter_b, pad=3, groups=spec.dim_inter))
        if spec.dim_global:
            if spec.decomposed:
                mixed.append(decomposed_depthwise_conv(x_g, self.global_wh, self.global_wv, self.global_b))
            else:
                k = spec.global_kernel
                mixed.append(conv2d(x_g, self.global_w, self.global_b, pad=k // 2, groups=spec.dim_global))
        y = channel_concat(mixed) if len(mixed) > 1 else mixed[0]
        return conv2d(y, self.pw2_w, self.pw2_b)
