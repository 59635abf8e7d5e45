"""Batch, layer, and instance normalization, and their learnable fusion.

Every norm is one body on shared statistics, four tape nodes:

- ``tensor.variance``, one node for the variances of all its views, packed
  into one small tensor.  `x` is centred once on its per-(n, c) means (the
  instance view); batch norm's moments combine those over the batch, so only
  the layer view takes full-size passes of its own.
- ``sqrt(add(var, EPS))`` on the packed variances.  The square root stays an
  ordinary op of this module, so the gradient along the std path is checked
  like any other (the benchmark's smoke test breaks ``norm.sqrt`` and expects
  the float64 gradient check to notice).
- ``tensor.normalize``, one node for ``gamma * sum_v weight_v * view_v +
  beta``: the batch and instance views are affine in `x` per (n, c) and the
  layer view is one per-pixel term, and its backward is closed-form in a
  few per-(n, c) and per-pixel sums.

A layer fixes its views, their weights and which guards apply when it is
built.  Its views are its kinds, an ordered subset of ``("bn", "ln",
"in")``, and ``variance`` packs their statistics in that order.  Its
``forward`` makes every check first, once per input shape and mode: the
channel count, then `DegenerateInputError` where statistics would cover
fewer than two elements and ``ShapeError`` where they would cover none.  A
rejected call computes nothing and leaves the parameters and running
values as they were; an accepted one folds batch statistics into the
running values.  `PlainNorm` has one view and no weight;
`MultiViewNorm` has all three with per-channel weights (initialized to
ones).  A view with weight zero adds exact zeros, so a one-hot fusion
weight reproduces the corresponding `PlainNorm` bitwise.  The results are
not bitwise those of the unfused ops (``(x - mu) / std`` per view, summed):
they agree to a few ulp.

Batch normalization is the only stateful view: training mode normalizes
with batch statistics and updates per-channel running mean/variance;
inference mode normalizes with the frozen running values, which
``variance`` takes as constants.  Running variance is stored biased
(divide by count), like the batch statistic.  ``EPS`` and ``MOMENTUM``
are constants of every norm.
"""

from __future__ import annotations

import functools

import numpy as np

from .module import Module
from .tensor import ShapeError, _count, add, normalize, sqrt, variance

EPS = 1e-5
MOMENTUM = 0.1

# reduction axes of each view (counted by the checks, named when empty), and the error raised
# when they span fewer than two elements
_VIEWS = {
    "bn": ((0, 2, 3), "batch norm: batch statistics need n*h*w >= 2 per channel, got {0}*{2}*{3}"),
    "ln": ((1,), "layer norm: needs C >= 2 channels, got {1}"),
    "in": ((2, 3), "instance norm: needs h*w >= 2 spatial positions, got {2}x{3}"),
}


class DegenerateInputError(ValueError):
    """Normalization over a reduction extent too small to carry statistics."""


@functools.lru_cache(maxsize=256)
def _check(channels, kinds, shape, training):
    """Every check of a norm call, once per signature, before anything is computed.

    In order: the channel count; the ``bn`` guard in training and the guard
    of a plain ``in`` view (a weighted ``in`` view is unguarded, on 1x1 maps
    it contributes exactly zero); an empty extent of any view; the ``ln``
    guard.  Cached: a signature is checked once, and a bad one raises on
    every call, as exceptions are not cached.
    """
    if shape[1] != channels:
        raise ValueError(f"norm built for {channels} channels, input has {shape[1]}")
    count = {k: _count(shape, _VIEWS[k][0]) for k in kinds}
    guarded = [k for k in kinds if k == "bn" and training or kinds == ("in",)]
    for k in guarded:
        if count[k] < 2:
            raise DegenerateInputError(_VIEWS[k][1].format(*shape))
    for k in kinds:
        if count[k] == 0:
            raise ShapeError(f"variance over empty extent (axes {_VIEWS[k][0]} of shape {shape})")
    if "ln" in kinds and count["ln"] < 2:
        raise DegenerateInputError(_VIEWS["ln"][1].format(*shape))


class _ViewSum(Module):
    """The body of both norm layers: ``gamma * sum_v weight_v * view_v + beta`` as one node.

    Registers one weight ``alpha_<kind>`` per view when there are several
    (none for a single view), then ``gamma`` and ``beta``, then the
    ``run_mean``/``run_var`` buffers if a view is ``bn``; checkpoints key on
    these names in this order.  A ``bn`` view in training mode folds the
    batch statistics into the running buffers in place, ``MOMENTUM`` of the
    batch to ``1 - MOMENTUM`` of the old value; in inference mode it
    normalizes with them as constants.  Every check runs before that fold,
    so a rejected call leaves the buffers untouched.
    """

    def __init__(self, channels, kinds):
        super().__init__()
        self.channels = channels
        shape = (1, channels, 1, 1)
        weights = [None] * len(kinds)
        if len(kinds) > 1:
            weights = [self.param(f"alpha_{k}", np.ones(shape), decay=False) for k in kinds]
        self.gamma = self.param("gamma", np.ones(shape), decay=False)
        self.beta = self.param("beta", np.zeros(shape), decay=False)
        if "bn" in kinds:
            self.buffer("run_mean", np.zeros(channels))
            self.buffer("run_var", np.ones(channels))
        # the fixed part of a call: the views and their weights
        self._kinds = kinds
        self._weights = tuple(weights)
        self._bn = "bn" in kinds

    @property
    def run_mean(self):
        return self._buffers["run_mean"]

    @property
    def run_var(self):
        return self._buffers["run_var"]

    def forward(self, x, training=False):
        _check(self.channels, self._kinds, x.shape, training)
        running = (self.run_mean, self.run_var) if self._bn and not training else None
        var, m = variance(x, self._kinds, EPS, running)
        if self._bn and training:
            for buf, stat in zip((self.run_mean, self.run_var), m.stats["bn"]):
                buf *= 1.0 - MOMENTUM
                buf += MOMENTUM * stat
        return normalize(x, m, sqrt(add(var, EPS)), self._weights, self.gamma, self.beta)


class PlainNorm(_ViewSum):
    """Single-view normalization (bn | ln | in) with a channelwise affine."""

    KINDS = ("bn", "ln", "in")

    def __init__(self, channels, kind):
        if kind not in self.KINDS:
            raise ValueError(f"unknown norm kind {kind!r}; expected one of {self.KINDS}")
        super().__init__(channels, (kind,))
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

    def __init__(self, channels):
        super().__init__(channels, ("bn", "ln", "in"))
        self.alpha_bn, self.alpha_ln, self.alpha_in = self._weights


def make_norm(kind, channels):
    """Build a block-norm layer: 'mvn' or one of PlainNorm's kinds."""
    return MultiViewNorm(channels) if kind == "mvn" else PlainNorm(channels, kind)
