"""Batch, layer, and instance normalization, and their learnable fusion.

Every view has the same stats path: the population variance over a
reduction-axis set as one tape node (``tensor.variance``), then
``sqrt(var + eps)`` from the ordinary ops.  The square root stays an
ordinary op of this module, so the gradient along the std path is checked
like any other (the benchmark's smoke test breaks ``norm.sqrt`` and expects
the float64 gradient check to notice).  The centre-and-divide is
``tensor.normalize``, one tape node whose backward folds in each mean's
gradient: `standardize` passes it one view, and the fused layer passes it
all three with their per-channel weights (initialized to ones) and the
single channelwise affine applied after the weighted sum.  A training
``MultiViewNorm`` therefore records 10 tape nodes: three variances, three
``add``/``sqrt`` pairs and the one ``normalize``.  Each element is computed
in the order of the unfused ops, so a one-hot fusion weight reproduces the
corresponding single normalization bitwise.

Batch normalization is the only statful view: training mode normalizes
with batch statistics and updates per-channel running mean/variance;
inference mode normalizes with the frozen running values, which
``normalize`` takes as constants (``axes=()``).  Running variance is
stored biased (divide by count), like the batch statistic.
"""

from __future__ import annotations

import numpy as np

from .module import Module
from .tensor import Tensor, add, mul, normalize, sqrt, variance

DEFAULT_EPS = 1e-5
DEFAULT_MOMENTUM = 0.1


class DegenerateInputError(ValueError):
    """Normalization over a reduction extent too small to carry statistics."""


def _stats(x, axes, eps):
    """``(mu, var, std)`` over `axes`: mean and variance as plain keepdims arrays, std on the tape."""
    mu, var = variance(x, axes)
    return mu, var.data, sqrt(add(var, eps))


def standardize(x, axes, eps):
    """(x - mean) / sqrt(var + eps) over `axes`; the shared stats path.

    Returns ``(y, mu, var)``: the standardized tensor and the mean and
    population variance as plain keepdims arrays.  ``y`` is bitwise equal to
    ``div(sub(x, mu), sqrt(add(var, eps)))`` with ``mu = mean(x, axes)`` and
    ``var = mean(square(sub(x, mu)), axes)``.
    """
    mu, var, std = _stats(x, axes, eps)
    return normalize(x, [(axes, mu, std, None)]), mu, var


def _batch_view(x, state, training):
    """``(axes, mu, std)`` of `batch_norm` for `normalize`; running values have ``axes=()``."""
    n, c, h, w = x.shape
    if not training:
        rv = Tensor(state.run_var.reshape(1, c, 1, 1))
        return (), state.run_mean.reshape(1, c, 1, 1), sqrt(add(rv, state.eps))
    if n * h * w < 2:
        raise DegenerateInputError(
            f"batch_norm: batch statistics need n*h*w >= 2 per channel, got {n}*{h}*{w}"
        )
    mu, var, std = _stats(x, (0, 2, 3), state.eps)
    m = state.momentum
    state.set_buffer("run_mean", (1.0 - m) * state.run_mean + m * mu.reshape(c))
    state.set_buffer("run_var", (1.0 - m) * state.run_var + m * var.reshape(c))
    return (0, 2, 3), mu, std


def batch_norm(x, state, training):
    """Channelwise standardization (pre-affine).

    `state` carries run_mean/run_var buffers, eps, and momentum (either a
    plain BN layer or the multi-view layer).  Training mode uses batch
    statistics over (n, h, w) per channel and folds them into the running
    values; inference mode uses the running values as constants.
    """
    return normalize(x, [(*_batch_view(x, state, training), None)])


def _require_channels(x):
    if x.shape[1] < 2:
        raise DegenerateInputError(f"layer_norm: needs C >= 2 channels, got {x.shape[1]}")


def layer_norm(x, eps=DEFAULT_EPS):
    """Per-pixel standardization across channels (pre-affine)."""
    _require_channels(x)
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
    (they may go negative).  The affine is applied once, after the sum, and
    the whole sum is one ``normalize`` node.

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
        views = [(*_batch_view(x, self, training), self.alpha_bn)]
        _require_channels(x)
        # the instance view is unguarded: zero contribution at 1x1
        for axes, alpha in (((1,), self.alpha_ln), ((2, 3), self.alpha_in)):
            mu, _, std = _stats(x, axes, self.eps)
            views.append((axes, mu, std, alpha))
        return normalize(x, views, self.gamma, self.beta)


def make_norm(kind, channels, eps=DEFAULT_EPS, momentum=DEFAULT_MOMENTUM):
    """Build a block-norm layer: 'mvn' or one of PlainNorm's kinds."""
    if kind == "mvn":
        return MultiViewNorm(channels, eps, momentum)
    return PlainNorm(channels, kind, eps, momentum)
