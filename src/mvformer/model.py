"""Four-stage convolutional vision backbone built from the mixer blocks.

Each block is norm -> token mixer -> residual, norm -> channel MLP ->
residual, with optional per-channel residual scaling (last two stages) and
per-sample stochastic depth whose probability ramps linearly over block
depth.  ``drop_path`` draws the stochastic-depth keep mask, one factor per
sample, and each residual tail (branch times scale times mask, plus the
input) is one ``tensor.residual`` node.  Stage boundaries downsample with
a strided convolution: a 7x7 stride-4 stem on raw images, then
pre-normalized 3x3 stride-2 reductions.
The classifier pools, layer-norms the pooled vector (instance statistics
are degenerate on 1x1 maps, so the pre-head norm is a plain layer norm),
and applies a two-layer MLP head.

Variant presets:

    name   embed dims            depths        drop path
    xT     64, 128, 320, 512     2, 2,  4, 2   0.2
    T      64, 128, 320, 512     3, 3,  9, 3   0.2
    S      64, 128, 320, 512     3, 12, 18, 3  0.3
    B      96, 192, 384, 576     3, 12, 18, 3  0.4
    micro   8,  16,  32,  64     1, 1,  2, 1   0.0   (desk-scale, 10 classes)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .data import CHANNELS
from .mixer import (
    ABLATION_MODES,
    ConfigError,
    StarReLU,
    TokenMixer,
    _trunc_normal,
    ablate_spec,
    make_stage_spec,
)
from .module import Module
from .norm import PlainNorm, make_norm
from .tensor import conv2d, global_avg_pool, grad_enabled, residual

STEM_GEOMETRY = (7, 4, 2)  # kernel, stride, pad for stage 1
DOWN_GEOMETRY = (3, 2, 1)  # kernel, stride, pad for stages 2-4
HEAD_MLP_RATIO = 4  # classifier hidden width, as a multiple of the last embed dim
RES_SCALE_STAGES = (3, 4)  # stages whose blocks scale both residual branches


def stage_map_sizes(input_hw):
    """Side of the square map each stage runs on, for a square input."""
    sizes = []
    size = input_hw
    for k, s, p in (STEM_GEOMETRY,) + (DOWN_GEOMETRY,) * 3:
        if size + 2 * p < k:
            raise ValueError(f"input size {input_hw} too small: a {size}-wide map meets kernel {k}")
        size = (size + 2 * p - k) // s + 1
        sizes.append(size)
    return tuple(sizes)


NORM_KINDS = ("mvn", *PlainNorm.KINDS)

PRESETS = {
    "xT": dict(embed_dims=(64, 128, 320, 512), depths=(2, 2, 4, 2), drop_path_rate=0.2),
    "T": dict(embed_dims=(64, 128, 320, 512), depths=(3, 3, 9, 3), drop_path_rate=0.2),
    "S": dict(embed_dims=(64, 128, 320, 512), depths=(3, 12, 18, 3), drop_path_rate=0.3),
    "B": dict(embed_dims=(96, 192, 384, 576), depths=(3, 12, 18, 3), drop_path_rate=0.4),
    "micro": dict(
        embed_dims=(8, 16, 32, 64), depths=(1, 1, 2, 1), drop_path_rate=0.0, num_classes=10
    ),
}


@dataclass(frozen=True)
class ModelConfig:
    """Variant descriptor; presets fill dims/depths, everything overridable."""

    embed_dims: tuple[int, int, int, int]
    depths: tuple[int, int, int, int]
    mlp_ratio: int = 4
    num_classes: int = 1000
    input_channels: ClassVar[int] = CHANNELS
    block_norm: str = "mvn"
    drop_path_rate: float = 0.0
    ablation: str | None = None

    def __post_init__(self):
        if len(self.embed_dims) != 4 or len(self.depths) != 4:
            raise ConfigError("embed_dims and depths must have one entry per stage (4)")
        for d in self.embed_dims:
            if d < 2:
                raise ConfigError(f"embed dims must be >= 2, got {d}")
            if d % 2:
                raise ConfigError(f"embed dims must be even for the channel split, got {d}")
        for d in self.depths:
            if d < 1:
                raise ConfigError(f"stage depths must be >= 1, got {d}")
        if self.mlp_ratio < 1:
            raise ConfigError(f"mlp_ratio must be >= 1, got {self.mlp_ratio}")
        if self.num_classes < 1:
            raise ConfigError(f"num_classes must be >= 1, got {self.num_classes}")
        if self.block_norm not in NORM_KINDS:
            raise ConfigError(f"block_norm must be one of {NORM_KINDS}, got {self.block_norm!r}")
        if not 0.0 <= self.drop_path_rate < 1.0:
            raise ConfigError(f"drop_path_rate must be in [0, 1), got {self.drop_path_rate}")
        if self.ablation is not None and self.ablation not in ABLATION_MODES:
            raise ConfigError(f"unknown ablation {self.ablation!r}")

    def stage_spec(self, stage):
        spec = make_stage_spec(stage, self.embed_dims[stage - 1])
        if self.ablation is not None:
            spec = ablate_spec(spec, self.ablation)
        return spec

    def block_drop_rates(self):
        """Per-block stochastic-depth probabilities, ramping 0 -> peak over depth."""
        total = sum(self.depths)
        if total == 1:
            return [0.0]
        return [self.drop_path_rate * i / (total - 1) for i in range(total)]


def model_config(preset, **overrides):
    """Resolve a preset name to a ModelConfig, with field overrides."""
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; expected one of {sorted(PRESETS)}")
    kwargs = dict(PRESETS[preset])
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def drop_path(x, prob, training, rng):
    """Per-sample stochastic-depth mask for the residual branch `x`, or None.

    In training with ``prob > 0``, an (n, 1, 1, 1) array of `x`'s dtype that
    holds 0 for a sample whose branch is dropped (probability `prob`) and
    1/(1-prob) for a survivor, so inference (no mask: the identity) matches
    the training expectation.  ``residual`` multiplies the branch by it.
    """
    if not training or prob <= 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode drop path needs a random generator")
    keep = 1.0 - prob
    mask = (rng.random(x.shape[0]) < keep).astype(x.dtype) / keep
    return mask.reshape(-1, 1, 1, 1)


class Mlp(Module):
    """Per-position channel MLP: C -> ratio*C -> C with StarReLU."""

    def __init__(self, channels, ratio, rng):
        super().__init__()
        hidden = ratio * channels
        self.fc1_w = self.param("fc1_w", _trunc_normal(rng, (hidden, channels, 1, 1)))
        self.fc1_b = self.param("fc1_b", np.zeros((1, hidden, 1, 1)), decay=False)
        self.act = self.child("act", StarReLU())
        self.fc2_w = self.param("fc2_w", _trunc_normal(rng, (channels, hidden, 1, 1)))
        self.fc2_b = self.param("fc2_b", np.zeros((1, channels, 1, 1)), decay=False)

    def forward(self, x):
        y = conv2d(x, self.fc1_w, self.fc1_b)
        y = self.act.forward(y)
        return conv2d(y, self.fc2_w, self.fc2_b)


class Layer(Module):
    """A layer written once, as its ``steps``: ``(step(x, training=False, rng=None), owners)`` pairs.

    ``owners`` are the modules and tensors (``None`` if absent) holding the parameters a step is
    first to read.  Every norm ends a step that owns it alone, so a step after it starts from the
    normalized input.  ``forward`` runs the steps in turn, each taking the state the one before
    returned (a tensor, or inside a block a pair); the gradient check runs them one at a time.
    """

    def forward(self, x, training=False, rng=None):
        for step, _ in self.steps:
            x = step(x, training, rng)
        return x


class Block(Layer):
    """Mixer sub-block and MLP sub-block, each normalized and residual.

    Every norm ends a step, so its four steps are ``prenorm1``, ``x -> (x, norm1(x))``;
    ``mixer_residual``, ``(x, u) -> x + mixer(u)``; then ``prenorm2`` and ``mlp_residual``,
    the same two for ``norm2`` and the MLP.  Each branch is multiplied by its residual scale
    (if any) and its stochastic-depth mask, which a residual step draws after computing its
    branch, so the mixer's mask is drawn first.
    """

    def __init__(self, spec, norm_kind, mlp_ratio, use_res_scale, drop_prob, rng):
        super().__init__()
        c = spec.channels
        self.drop_prob = drop_prob
        self.norm1 = self.child("norm1", make_norm(norm_kind, c))
        self.mixer = self.child("mixer", TokenMixer(spec, rng))
        self.norm2 = self.child("norm2", make_norm(norm_kind, c))
        self.mlp = self.child("mlp", Mlp(c, mlp_ratio, rng))
        self.res_scale1 = self.res_scale2 = None
        if use_res_scale:
            self.res_scale1 = self.param("res_scale1", np.ones((1, c, 1, 1)), decay=False)
            self.res_scale2 = self.param("res_scale2", np.ones((1, c, 1, 1)), decay=False)

    @property
    def steps(self):
        return (
            (self.prenorm1, (self.norm1,)),
            (self.mixer_residual, (self.res_scale1, self.mixer)),
            (self.prenorm2, (self.norm2,)),
            (self.mlp_residual, (self.res_scale2, self.mlp)),
        )

    def prenorm1(self, x, training=False, rng=None):
        return x, self.norm1.forward(x, training)

    def mixer_residual(self, xu, training=False, rng=None):
        x, u = xu
        branch = self.mixer.forward(u)
        return residual(x, branch, self.res_scale1, drop_path(branch, self.drop_prob, training, rng))

    def prenorm2(self, x, training=False, rng=None):
        return x, self.norm2.forward(x, training)

    def mlp_residual(self, xu, training=False, rng=None):
        x, u = xu
        branch = self.mlp.forward(u)
        return residual(x, branch, self.res_scale2, drop_path(branch, self.drop_prob, training, rng))


class Downsample(Layer):
    """Strided patch embedding; stages 2-4 pre-normalize their input.

    Its steps are ``prenorm``, if it has a norm, then ``conv``, the strided
    convolution alone.
    """

    def __init__(self, cin, cout, kernel, stride, pad, norm_kind, rng):
        super().__init__()
        self.stride = stride
        self.pad = pad
        self.norm = self.child("norm", make_norm(norm_kind, cin)) if norm_kind else None
        self.w = self.param("w", _trunc_normal(rng, (cout, cin, kernel, kernel)))
        self.b = self.param("b", np.zeros((1, cout, 1, 1)), decay=False)

    @property
    def steps(self):
        conv = ((self.conv, (self.w, self.b)),)
        return conv if self.norm is None else ((self.prenorm, (self.norm,)), *conv)

    def prenorm(self, x, training=False, rng=None):
        return self.norm.forward(x, training)

    def conv(self, x, training=False, rng=None):
        return conv2d(x, self.w, self.b, stride=self.stride, pad=self.pad)


class MVFormer(Module):
    """The assembled backbone plus pooled MLP classifier.

    ``rng=None`` builds it weightless for ``analysis.cost_report``: exact parameter shapes, nothing drawn.
    """

    def __init__(self, cfg, rng):
        super().__init__()
        self.cfg = cfg
        dims = cfg.embed_dims
        sk, ss, sp = STEM_GEOMETRY
        dk, ds, dp = DOWN_GEOMETRY
        self.embeds = [self.child("embed1", Downsample(cfg.input_channels, dims[0], sk, ss, sp, None, rng))]
        for stage in (2, 3, 4):
            self.embeds.append(
                self.child(
                    f"embed{stage}",
                    Downsample(dims[stage - 2], dims[stage - 1], dk, ds, dp, cfg.block_norm, rng),
                )
            )
        rates = cfg.block_drop_rates()
        self.stages = []
        idx = 0
        for stage in (1, 2, 3, 4):
            spec = cfg.stage_spec(stage)
            blocks = []
            for b in range(cfg.depths[stage - 1]):
                blk = Block(
                    spec,
                    cfg.block_norm,
                    cfg.mlp_ratio,
                    use_res_scale=stage in RES_SCALE_STAGES,
                    drop_prob=rates[idx],
                    rng=rng,
                )
                blocks.append(self.child(f"stage{stage}_block{b}", blk))
                idx += 1
            self.stages.append(blocks)
        # network order: each stage's downsample, then its blocks
        self.layers = [
            layer for embed, blocks in zip(self.embeds, self.stages) for layer in (embed, *blocks)
        ]
        c_last = dims[3]
        hidden = HEAD_MLP_RATIO * c_last
        self.head_norm = self.child("head_norm", PlainNorm(c_last, "ln"))
        self.head_fc1_w = self.param("head_fc1_w", _trunc_normal(rng, (hidden, c_last, 1, 1)))
        self.head_fc1_b = self.param("head_fc1_b", np.zeros((1, hidden, 1, 1)), decay=False)
        self.head_act = self.child("head_act", StarReLU())
        self.head_fc2_w = self.param("head_fc2_w", _trunc_normal(rng, (cfg.num_classes, hidden, 1, 1)))
        self.head_fc2_b = self.param("head_fc2_b", np.zeros((1, cfg.num_classes, 1, 1)), decay=False)

    @property
    def steps(self):
        """Every layer's steps in network order; the head's parameters are in none."""
        return [step for layer in self.layers for step in layer.steps]

    def features(self, x, training=False, rng=None):
        for layer in self.layers:
            x = layer.forward(x, training, rng)
        return x

    def head(self, x, training=False):
        """Pooled classifier: last-stage features (n, c, h, w) -> logits (n, num_classes, 1, 1)."""
        x = global_avg_pool(x)
        x = self.head_norm.forward(x, training)
        x = conv2d(x, self.head_fc1_w, self.head_fc1_b)
        x = self.head_act.forward(x)
        return conv2d(x, self.head_fc2_w, self.head_fc2_b)

    def forward(self, images, training=False, rng=None):
        """Images (n, c_in, h, w) -> logits (n, num_classes, 1, 1).

        Eval mode (``training=False``) records no tape: the logits and every
        intermediate have no parents and no backward closures, so nothing can
        differentiate through them and each intermediate is freed as soon as
        the next layer has consumed it.
        """
        with grad_enabled(training):
            return self.head(self.features(images, training, rng), training)

    def mvn_sites(self):
        """Block norm sites in network order: (stage, block_index, site, norm)."""
        for stage in (1, 2, 3, 4):
            for b, blk in enumerate(self.stages[stage - 1]):
                yield stage, b, "mixer", blk.norm1
                yield stage, b, "mlp", blk.norm2


def build_model(cfg, seed=0):
    """Construct and initialize a model; same seed, bitwise-same parameters."""
    rng = np.random.default_rng(seed)
    model = MVFormer(cfg, rng)
    names = [n for n, _ in model.named_parameters()]
    if len(names) != len(set(names)):
        raise RuntimeError("parameter registry contains duplicate names")
    return model
