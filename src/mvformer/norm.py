"""Batch, layer, and instance normalization, and their learnable fusion.

All three normalizations share one stats path, `standardize`: the
population variance over a reduction-axis set as one tape node
(``tensor.variance``), ``sqrt(var + eps)`` from the ordinary ops, and the
centre-and-divide as one node (``tensor.normalize``) whose backward folds
in the mean's gradient.  The square root stays an ordinary op of this
module, so the gradient along the std path is checked like any other (the
benchmark's smoke test breaks ``norm.sqrt`` and expects the float64
gradient check to notice).  Sharing the path means a one-hot fusion
weight reproduces the corresponding single normalization bitwise.  The
fused layer keeps three per-channel weight vectors (one per normalization
view, initialized to ones) and applies a single channelwise affine after
the weighted sum.

Batch normalization is the only statful view: training mode normalizes
with batch statistics and updates per-channel running mean/variance;
inference mode normalizes with the frozen running values.  Running
variance is stored biased (divide by count), like the batch statistic.
"""

from __future__ import annotations

import numpy as np

from .module import Module
from .tensor import Tensor, add, div, mul, normalize, sqrt, sub, variance

DEFAULT_EPS = 1e-5
DEFAULT_MOMENTUM = 0.1


class DegenerateInputError(ValueError):
    """Normalization over a reduction extent too small to carry statistics."""


def standardize(x, axes, eps):
    """(x - mean) / sqrt(var + eps) over `axes`; the shared stats path.

    Returns ``(y, mu, var)``: the standardized tensor and the mean and
    population variance as plain keepdims arrays.  ``y`` is bitwise equal to
    ``div(sub(x, mu), sqrt(add(var, eps)))`` with ``mu = mean(x, axes)`` and
    ``var = mean(square(sub(x, mu)), axes)``.
    """
    mu, var = variance(x, axes)
    return normalize(x, axes, mu, sqrt(add(var, eps))), mu, var.data


def batch_norm(x, state, training):
    """Channelwise standardization (pre-affine).

    `state` carries run_mean/run_var buffers, eps, and momentum (either a
    plain BN layer or the multi-view layer).  Training mode uses batch
    statistics over (n, h, w) per channel and folds them into the running
    values; inference mode uses the running values as constants.
    """
    n, c, h, w = x.shape
    if training:
        if n * h * w < 2:
            raise DegenerateInputError(
                f"batch_norm: batch statistics need n*h*w >= 2 per channel, got {n}*{h}*{w}"
            )
        out, mu, var = standardize(x, (0, 2, 3), state.eps)
        m = state.momentum
        state.set_buffer("run_mean", (1.0 - m) * state.run_mean + m * mu.reshape(c))
        state.set_buffer("run_var", (1.0 - m) * state.run_var + m * var.reshape(c))
        return out
    rm = Tensor(state.run_mean.reshape(1, c, 1, 1))
    rv = Tensor(state.run_var.reshape(1, c, 1, 1))
    return div(sub(x, rm), sqrt(add(rv, state.eps)))


def layer_norm(x, eps=DEFAULT_EPS):
    """Per-pixel standardization across channels (pre-affine)."""
    if x.shape[1] < 2:
        raise DegenerateInputError(f"layer_norm: needs C >= 2 channels, got {x.shape[1]}")
    return standardize(x, (1,), eps)[0]


def instance_norm(x, eps=DEFAULT_EPS):
    """Per-(sample, channel) spatial standardization (pre-affine)."""
    if x.shape[2] * x.shape[3] < 2:
        raise DegenerateInputError(
            f"instance_norm: needs h*w >= 2 spatial positions, got {x.shape[2]}x{x.shape[3]}"
        )
    return standardize(x, (2, 3), eps)[0]


def apply_affine(x, gamma, beta):
    """Per-channel y = gamma * x + beta."""
    if gamma.shape[1] != x.shape[1] or beta.shape[1] != x.shape[1]:
        raise ValueError(
            f"affine length mismatch: gamma {gamma.shape[1]}, beta {beta.shape[1]}, "
            f"input channels {x.shape[1]}"
        )
    return add(mul(x, gamma), beta)


class PlainNorm(Module):
    """Single-view normalization (bn | ln | in) with a channelwise affine."""

    KINDS = ("bn", "ln", "in")

    def __init__(self, channels, kind, eps=DEFAULT_EPS, momentum=DEFAULT_MOMENTUM):
        super().__init__()
        if kind not in self.KINDS:
            raise ValueError(f"unknown norm kind {kind!r}; expected one of {self.KINDS}")
        self.channels = channels
        self.kind = kind
        self.eps = eps
        self.momentum = momentum
        self.gamma = self.param("gamma", np.ones((1, channels, 1, 1)), decay=False)
        self.beta = self.param("beta", np.zeros((1, channels, 1, 1)), decay=False)
        if kind == "bn":
            self.buffer("run_mean", np.zeros(channels))
            self.buffer("run_var", np.ones(channels))

    @property
    def run_mean(self):
        return self._buffers["run_mean"]

    @property
    def run_var(self):
        return self._buffers["run_var"]

    def forward(self, x, training=False):
        if x.shape[1] != self.channels:
            raise ValueError(f"norm built for {self.channels} channels, input has {x.shape[1]}")
        if self.kind == "bn":
            out = batch_norm(x, self, training)
        elif self.kind == "ln":
            out = layer_norm(x, self.eps)
        else:
            out = instance_norm(x, self.eps)
        return apply_affine(out, self.gamma, self.beta)


class MultiViewNorm(Module):
    """Learnable per-channel weighted sum of BN, LN, and IN views.

    y = gamma * (w_bn * x_bn + w_ln * x_ln + w_in * x_in) + beta, with all
    three view weights initialized to one and unconstrained during training
    (they may go negative).  The affine is applied once, after the sum.

    The instance view degrades gracefully on 1x1 feature maps: its centered
    numerator is exactly zero there, so it contributes nothing rather than
    raising, which keeps deep stages usable on very small inputs.
    """

    def __init__(self, channels, eps=DEFAULT_EPS, momentum=DEFAULT_MOMENTUM):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.alpha_bn = self.param("alpha_bn", np.ones((1, channels, 1, 1)), decay=False)
        self.alpha_ln = self.param("alpha_ln", np.ones((1, channels, 1, 1)), decay=False)
        self.alpha_in = self.param("alpha_in", np.ones((1, channels, 1, 1)), decay=False)
        self.gamma = self.param("gamma", np.ones((1, channels, 1, 1)), decay=False)
        self.beta = self.param("beta", np.zeros((1, channels, 1, 1)), decay=False)
        self.buffer("run_mean", np.zeros(channels))
        self.buffer("run_var", np.ones(channels))

    @property
    def run_mean(self):
        return self._buffers["run_mean"]

    @property
    def run_var(self):
        return self._buffers["run_var"]

    def forward(self, x, training=False):
        if x.shape[1] != self.channels:
            raise ValueError(f"norm built for {self.channels} channels, input has {x.shape[1]}")
        x_bn = batch_norm(x, self, training)
        x_ln = layer_norm(x, self.eps)
        x_in = standardize(x, (2, 3), self.eps)[0]  # unguarded: zero contribution at 1x1
        mixed = add(add(mul(x_bn, self.alpha_bn), mul(x_ln, self.alpha_ln)), mul(x_in, self.alpha_in))
        return apply_affine(mixed, self.gamma, self.beta)


def make_norm(kind, channels, eps=DEFAULT_EPS, momentum=DEFAULT_MOMENTUM):
    """Build a block-norm layer: 'mvn' or one of PlainNorm's kinds."""
    if kind == "mvn":
        return MultiViewNorm(channels, eps, momentum)
    return PlainNorm(channels, kind, eps, momentum)
