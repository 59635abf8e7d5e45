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

``StageSpec.depthwise_groups`` is this table; only the layer reads it, to
build and run its filters.  Empty groups own no kernels, so ``cost_report``,
counting the layer's parameters, sees exactly the filters that run.
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
    filter; otherwise the global kernel is a square k x k.
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

    @property
    def depthwise_groups(self):
        """The non-empty depthwise groups in channel order, as ``(name, channels, kernels)``.

        `kernels` lists ``(weight name, (kh, kw))`` for each conv the group runs in turn.  Each
        pads ``(kh // 2, kw // 2)``, keeping the map's size; the bias ``<name>_b`` rides on the last.
        """
        k = self.global_kernel
        glob = (("global_wh", (k, 1)), ("global_wv", (1, k))) if self.decomposed else (("global_w", (k, k)),)
        groups = (
            ("local", self.dim_local, (("local_w", (3, 3)),)),
            ("inter", self.dim_inter, (("inter_w", (7, 7)),)),
            ("global", self.dim_global, glob),
        )
        return tuple(group for group in groups if group[1])

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


_INIT_CHUNK = 1 << 16  # float64 normals drawn at a time by _trunc_normal


def _trunc_normal(rng, shape, std=0.02):
    """Normal(0, std) resampled until within 2 std, like common ViT init.

    The float64 normals are drawn in chunks straight into the float32
    result, so no full-size float64 copy is ever held; the values, the
    redraw order and the generator's final state are those of one
    full-size draw.  With ``rng=None`` nothing is drawn: the result is a
    read-only, zero-stride view of one float32 zero, of `shape` but no storage.
    """
    if rng is None:
        return np.broadcast_to(np.float32(0), shape)
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
        # per non-empty group: (channels, [(weight, pad)] in run order, bias of the last conv)
        self.groups = []
        for name, channels, kernels in spec.depthwise_groups:
            convs = [(self.param(w_name, _trunc_normal(rng, (channels, 1, kh, kw))), (kh // 2, kw // 2))
                     for w_name, (kh, kw) in kernels]
            bias = self.param(f"{name}_b", np.zeros((1, channels, 1, 1)), decay=False)
            self.groups.append((channels, convs, bias))
        self.group_sizes = tuple(channels for channels, _, _ in self.groups)
        self.pw2_w = self.param("pw2_w", _trunc_normal(rng, (c, e, 1, 1)))
        self.pw2_b = self.param("pw2_b", np.zeros((1, c, 1, 1)), decay=False)

    def forward(self, x):
        if x.shape[1] != self.spec.channels:
            raise ConfigError(f"mixer built for {self.spec.channels} channels, input has {x.shape[1]}")
        y = self.act.forward(conv2d(x, self.pw1_w, self.pw1_b))
        mixed = []
        for part, (channels, convs, bias) in zip(channel_split(y, self.group_sizes), self.groups):
            for w, pad in convs[:-1]:
                part = conv2d(part, w, None, pad=pad, groups=channels)
            w, pad = convs[-1]
            mixed.append(conv2d(part, w, bias, pad=pad, groups=channels))
        y = channel_concat(mixed) if len(mixed) > 1 else mixed[0]
        return conv2d(y, self.pw2_w, self.pw2_b)
