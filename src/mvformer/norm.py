"""Batch, layer, and instance normalization, and their learnable fusion.

Every view has the same stats path: the population variance over a
reduction-axis set as one tape node (``tensor.variance``), then
``sqrt(var + eps)`` from the ordinary ops.  The square root stays an
ordinary op of this module, so the gradient along the std path is checked
like any other (the benchmark's smoke test breaks ``norm.sqrt`` and expects
the float64 gradient check to notice).  The centre-and-divide is
``tensor.normalize``, one tape node whose backward folds in each mean's
gradient.  One view builder, `_view`, gives each view's ``(axes, mu, std)``
and raises `DegenerateInputError` where its statistics would cover fewer
than two elements; the functional forms pass one view to ``normalize``.

Both layers are one body: a list of views and one ``normalize(x, views,
gamma, beta)`` call, which applies the channelwise affine after the sum.
`PlainNorm` passes its single view with no weight, so a training plain
norm records 4 tape nodes (``variance``, ``add``, ``sqrt``,
``normalize``); `MultiViewNorm` passes all three with their per-channel
weights (initialized to ones), 10 tape nodes.  Each element is computed in
the order of the unfused ops, so a one-hot fusion weight reproduces the
corresponding single normalization bitwise.

Batch normalization is the only stateful view: training mode normalizes
with batch statistics and updates per-channel running mean/variance;
inference mode normalizes with the frozen running values, which
``normalize`` takes as constants (``axes=()``).  Running variance is
stored biased (divide by count), like the batch statistic.
"""

from __future__ import annotations

import numpy as np

from .module import Module
from .tensor import Tensor, _count, add, normalize, sqrt, variance

DEFAULT_EPS = 1e-5
DEFAULT_MOMENTUM = 0.1

# reduction axes of each view, and the error raised when they span fewer than two elements
_VIEWS = {
    "bn": ((0, 2, 3), "batch_norm: batch statistics need n*h*w >= 2 per channel, got {0}*{2}*{3}"),
    "ln": ((1,), "layer_norm: needs C >= 2 channels, got {1}"),
    "in": ((2, 3), "instance_norm: needs h*w >= 2 spatial positions, got {2}x{3}"),
}


class DegenerateInputError(ValueError):
    """Normalization over a reduction extent too small to carry statistics."""


def _stats(x, axes, eps):
    """``(mu, var, std)`` over `axes`: mean and variance as plain keepdims arrays, std on the tape."""
    mu, var = variance(x, axes)
    return mu, var.data, sqrt(add(var, eps))


def _view(x, kind, eps, state=None, training=True, guard=True):
    """``(axes, mu, std)`` of the `kind` view of `x` for `normalize`.

    A ``bn`` view reads and updates `state`'s running buffers and momentum:
    training mode folds the batch statistics into them, inference mode
    returns them as constants (``axes=()``).  With `guard` false a view over
    a single element is built anyway (its centred numerator is exactly zero).
    """
    if kind == "bn" and not training:
        c = x.shape[1]
        rv = Tensor(state.run_var.reshape(1, c, 1, 1))
        return (), state.run_mean.reshape(1, c, 1, 1), sqrt(add(rv, eps))
    axes, message = _VIEWS[kind]
    if guard and _count(x.shape, axes) < 2:
        raise DegenerateInputError(message.format(*x.shape))
    mu, var, std = _stats(x, axes, eps)
    if kind == "bn":
        c, m = x.shape[1], state.momentum
        state.set_buffer("run_mean", (1.0 - m) * state.run_mean + m * mu.reshape(c))
        state.set_buffer("run_var", (1.0 - m) * state.run_var + m * var.reshape(c))
    return axes, mu, std


def standardize(x, axes, eps):
    """(x - mean) / sqrt(var + eps) over `axes`; the shared stats path.

    Returns ``(y, mu, var)``: the standardized tensor and the mean and
    population variance as plain keepdims arrays.  ``y`` is bitwise equal to
    ``div(sub(x, mu), sqrt(add(var, eps)))`` with ``mu = mean(x, axes)`` and
    ``var = mean(square(sub(x, mu)), axes)``.
    """
    mu, var, std = _stats(x, axes, eps)
    return normalize(x, [(axes, mu, std, None)]), mu, var


def batch_norm(x, state, training):
    """Channelwise standardization (pre-affine).

    `state` carries run_mean/run_var buffers, eps, and momentum (either a
    plain BN layer or the multi-view layer).  Training mode uses batch
    statistics over (n, h, w) per channel and folds them into the running
    values; inference mode uses the running values as constants.
    """
    return normalize(x, [(*_view(x, "bn", state.eps, state, training), None)])


def layer_norm(x, eps=DEFAULT_EPS):
    """Per-pixel standardization across channels (pre-affine)."""
    return normalize(x, [(*_view(x, "ln", eps), None)])


def instance_norm(x, eps=DEFAULT_EPS):
    """Per-(sample, channel) spatial standardization (pre-affine)."""
    return normalize(x, [(*_view(x, "in", eps), None)])


class _ViewSum(Module):
    """The body of both norm layers: ``gamma * sum_v weight_v * view_v + beta`` as one node.

    Registers one weight ``alpha_<kind>`` per view when there are several
    (none for a single view), then ``gamma`` and ``beta``, then the
    ``run_mean``/``run_var`` buffers if a view is ``bn``; checkpoints key on
    these names in this order.
    """

    def __init__(self, channels, kinds, eps, momentum):
        super().__init__()
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        shape = (1, channels, 1, 1)
        weights = [None] * len(kinds)
        if len(kinds) > 1:
            weights = [self.param(f"alpha_{k}", np.ones(shape), decay=False) for k in kinds]
        self.gamma = self.param("gamma", np.ones(shape), decay=False)
        self.beta = self.param("beta", np.zeros(shape), decay=False)
        if "bn" in kinds:
            self.buffer("run_mean", np.zeros(channels))
            self.buffer("run_var", np.ones(channels))
        # (kind, weight, guard): a fused instance view is unguarded, contributing zero at 1x1
        self._views = [(k, w, w is None or k != "in") for k, w in zip(kinds, weights)]

    @property
    def run_mean(self):
        return self._buffers["run_mean"]

    @property
    def run_var(self):
        return self._buffers["run_var"]

    def forward(self, x, training=False):
        if x.shape[1] != self.channels:
            raise ValueError(f"norm built for {self.channels} channels, input has {x.shape[1]}")
        views = [(*_view(x, k, self.eps, self, training, guard), w) for k, w, guard in self._views]
        return normalize(x, views, self.gamma, self.beta)


class PlainNorm(_ViewSum):
    """Single-view normalization (bn | ln | in) with a channelwise affine."""

    KINDS = ("bn", "ln", "in")

    def __init__(self, channels, kind, eps=DEFAULT_EPS, momentum=DEFAULT_MOMENTUM):
        if kind not in self.KINDS:
            raise ValueError(f"unknown norm kind {kind!r}; expected one of {self.KINDS}")
        super().__init__(channels, (kind,), eps, momentum)
        self.kind = kind


class MultiViewNorm(_ViewSum):
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
        super().__init__(channels, ("bn", "ln", "in"), eps, momentum)
        self.alpha_bn, self.alpha_ln, self.alpha_in = (w for _, w, _ in self._views)


def make_norm(kind, channels, eps=DEFAULT_EPS, momentum=DEFAULT_MOMENTUM):
    """Build a block-norm layer: 'mvn' or one of PlainNorm's kinds."""
    if kind == "mvn":
        return MultiViewNorm(channels, eps, momentum)
    return PlainNorm(channels, kind, eps, momentum)
