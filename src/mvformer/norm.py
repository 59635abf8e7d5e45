"""Batch, layer, and instance normalization, and their learnable fusion.

The views (``_VIEWS``), a call's checked plan (``_check``), the statistics
and the fused node all live here.  Every norm is one body on shared
statistics, four tape nodes, each made by ``tensor._node``:

- ``variance``, one node for the variances of all its views, packed
  into one small tensor.  `x` is centred once on its per-(n, c) means (the
  instance view); batch norm's moments combine those over the batch, so only
  the layer view takes full-size passes of its own.
- ``sqrt(add(var, EPS))`` on the packed variances.  The square root stays an
  ordinary op of this module, so the gradient along the std path is checked
  like any other (the benchmark's smoke test breaks ``norm.sqrt`` and expects
  the float64 gradient check to notice).
- ``normalize``, one node for ``gamma * sum_v weight_v * view_v +
  beta``: the batch and instance views are affine in `x` per (n, c) and the
  layer view is one per-pixel term, and its backward is closed-form in a
  few per-(n, c) and per-pixel sums.

A layer fixes its views, their weights and which guards apply when it is
built.  Its views are its kinds, an ordered subset of ``("bn", "ln",
"in")``, and ``variance`` packs their statistics in that order.  Its
``forward`` first looks up its plan, once per input shape and mode: the
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
import types

import numpy as np

from . import tensor
from .module import Module
from .tensor import ShapeError, _col_sums, _count, _ones, _row_sums, add, sqrt

EPS = 1e-5
MOMENTUM = 0.1

# reduction axes of each view (counted by the checks, named when empty; the other axes size its
# packed variances), and the error raised when they span fewer than two elements
_VIEWS = {
    "bn": ((0, 2, 3), "batch norm: batch statistics need n*h*w >= 2 per channel, got {0}*{2}*{3}"),
    "ln": ((1,), "layer norm: needs C >= 2 channels, got {1}"),
    "in": ((2, 3), "instance norm: needs h*w >= 2 spatial positions, got {2}x{3}"),
}


class DegenerateInputError(ValueError):
    """Normalization over a reduction extent too small to carry statistics."""


@functools.lru_cache(maxsize=256)
def _check(channels, kinds, shape, training):
    """The plan of a norm call: every check, once per signature, then the packed layout.

    In order: the channel count; the ``bn`` guard in training and the guard
    of a plain ``in`` view (a weighted ``in`` view is unguarded, on 1x1 maps
    it contributes exactly zero); an empty extent of any view; the ``ln``
    guard.  Returns ``variance``'s read-only ``{kind: slice}`` in the order
    of `kinds`, each view as long as the elements its reduction keeps.
    Cached: every call shares the result, and a bad signature raises on
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
    at, start = {}, 0
    for k in kinds:
        size = _count(shape, [i for i in range(4) if i not in _VIEWS[k][0]])
        at[k] = slice(start, start + size)
        start += size
    return types.MappingProxyType(at)


class Moments:
    """The plain arrays `variance` computes and `normalize` reads; no tape links.

    ``at``: the call's plan from `_check`, each view's slice of the packed
    variances, keyed by kind in the call's order.  ``stats``: each view's
    ``(mean, variance)`` as flat arrays, keyed by kind: ``bn`` per channel
    (c,), ``ln`` per pixel (n, h*w) and ``in`` per map (n*c,).  ``xc``: `x`
    centred on its per-map means, present with a ``bn`` or ``in`` view, and
    ``shift`` the per-map minus the per-channel means, (n, c, 1, 1).  ``z``:
    the ``ln`` view's standardized values.  ``const``: the ``bn`` statistics
    are given constants.
    """

    __slots__ = ("at", "stats", "xc", "shift", "z", "const")


def variance(x, at, eps, running=None):
    """Population variances of `x` over the norm views of `at`, packed into one tape node.

    `at` is the call's plan from `_check`, ``{kind: slice}`` over an ordered
    subset of `_VIEWS`: batch statistics per channel over (0, 2, 3), layer
    statistics per pixel over (1,) and instance statistics per map over
    (2, 3).  Returns ``(var, m)``: a (1, 1, 1, k) tensor holding every
    view's variances, flattened into the slices of `at`, whose only parent
    is `x`, and the `Moments` that `normalize` reads.

    `x` is centred once on its per-map means.  The ``bn`` moments are the
    per-map ones combined over the batch (the pairwise update of Chan, Golub
    and LeVeque, 1979), so they take no full-size pass of their own.
    `running`, a ``(mean, var)`` pair of per-channel (c,) arrays, makes the
    ``bn`` view constant: its variance is packed as given and gets no
    gradient.  The ``ln`` view is centred and squared in one more pass and
    standardized here with ``sqrt(var + eps)``, in place.  Every sum is one
    matrix-vector product on a 2-D or 3-D reshape of C-contiguous data (a
    non-contiguous `x` is copied first).  The gradient is each
    view's ``2 (x - mu_v) / count_v`` times its incoming gradient, summed over
    the views (centred values sum to zero, so the means add nothing).
    """
    xd = x.data if x.data.flags.c_contiguous else np.ascontiguousarray(x.data)
    n, c, h, w = xd.shape
    hw = h * w
    m = Moments()
    m.at = at
    m.const = const = running is not None and "bn" in at
    m.stats = stats = {}
    xc = shift = z = std_ln = sq = None
    if "in" in at or "bn" in at:
        mu = _row_sums(xd.reshape(n * c, hw))
        mu /= hw
        mu4 = mu.reshape(n, c, 1, 1)
        xc = xd - mu4
        sq = xc * xc
        var = _row_sums(sq.reshape(n * c, hw))
        var /= hw
        if "in" in at:
            stats["in"] = mu, var
    if "bn" in at:
        if const:
            mu_c, var_c = running
        else:
            mu_c = _col_sums(mu.reshape(n, c))
            mu_c /= n
        shift = mu4 - mu_c.reshape(c, 1, 1)
        if not const:
            s = shift.reshape(n, c)
            var_c = _col_sums(var.reshape(n, c) + s * s)
            var_c /= n
        stats["bn"] = mu_c, var_c
    if "ln" in at:
        mu_p = _col_sums(xd.reshape(n, c, hw))
        mu_p /= c
        xl = xd - mu_p.reshape(n, 1, h, w)
        sq = np.multiply(xl, xl, out=sq)
        var_p = _col_sums(sq.reshape(n, c, hw))
        var_p /= c
        std_ln = np.sqrt(var_p + eps)
        z = np.multiply(xl, (1.0 / std_ln).reshape(n, 1, h, w), out=xl)
        stats["ln"] = mu_p, var_p
    m.xc, m.shift, m.z = xc, shift, z
    data = np.concatenate([stats[kind][1] for kind in at], axis=None).reshape(1, 1, 1, -1)

    def bw(g, acc):
        g = g.reshape(-1)
        gc = None if "bn" not in at or const else g[at["bn"]].reshape(c, 1, 1)
        gx = None
        if "in" in at or gc is not None:
            k = g[at["in"]].reshape(n, c, 1, 1) * (2.0 / hw) if "in" in at else 0.0
            if gc is not None:  # x - mu is xc + shift
                kc = gc * (2.0 / (n * hw))
                k = k + kc
            gx = xc * k
            if gc is not None:
                gx += shift * kc
        if z is not None:
            t = z * (g[at["ln"]].reshape(n, hw) * std_ln * (2.0 / c)).reshape(n, 1, h, w)
            gx = t if gx is None else np.add(gx, t, out=gx)
        acc(x, gx)

    constant = const and len(at) == 1
    return tensor._node(data, () if constant else (x,), bw), m


def normalize(x, m, std, weights, gamma, beta):
    """``gamma * sum_v weight_v * (x - mu_v) / std_v + beta``, recorded as one tape node.

    `m` and `std` come from ``variance``: `std` is ``sqrt(var + eps)`` of its
    packed variances, laid out by ``m.at``.  `weights` holds a tensor, or
    None for a weight of one, per view in the order of ``m.at``; `gamma`
    and `beta` are (1, c, 1, 1) tensors.  With ``r = 1 / std``, the ``in`` and ``bn`` views
    are affine in ``xc`` per (n, c), so the output is ``xc * scale + offset +
    ln_w * z`` with (n, c, 1, 1) arrays `scale` and `offset` and ``ln_w =
    gamma * weight`` of the ``ln`` view.  An ``in`` view of 1x1 maps is
    identically zero and drops out exactly, from the output and every
    gradient.

    The backward is closed-form.  Every weight, gamma, beta and std gradient
    comes from the per-(n, c) sums of g, ``g * xc`` and ``g * z`` and the
    per-pixel channel sums of ``ln_w * g`` and ``ln_w * g * z``.  `x`
    receives each view's gradient with its mean's gradient folded in (none
    for constant ``bn`` statistics): ``g * scale + q + (ln_w * g -
    mean_c(ln_w * g)) * r`` with q per (n, c).  Only ``xc`` and ``z`` are kept; without a tape the
    output is written over them.
    """
    parents = [x, std] + [t for t in weights if t is not None] + [gamma, beta]
    tape = tensor._grad_on and any(p.requires_grad for p in parents)
    n, c, h, wd = x.shape
    hw = h * wd
    at, xc, z, shift = m.at, m.xc, m.z, m.shift
    r = (1.0 / std.data).reshape(-1)
    one = _ones(c, x.dtype).reshape(1, c, 1, 1)  # a missing weight multiplies exactly
    gd = gamma.data
    w = {kind: one if t is None else t.data for kind, t in zip(at, weights)}
    coef_in = coef_bn = coef_ln = None
    if "in" in at:
        r_in = r[at["in"]].reshape(n, c, 1, 1)
        if hw == 1:
            r_in = np.zeros_like(r_in)
        coef_in = gd * (w["in"] * r_in)
    if "bn" in at:
        r_bn = r[at["bn"]].reshape(1, c, 1, 1)
        coef_bn = gd * (w["bn"] * r_bn)
    if "ln" in at:
        r_ln = r[at["ln"]].reshape(n, 1, h, wd)
        coef_ln = gd * w["ln"]
    offset = beta.data
    if coef_bn is not None:
        offset = coef_bn * shift + offset
    out = None
    if xc is not None:
        scale = sum(k for k in (coef_in, coef_bn) if k is not None)
        out = xc * scale if tape else np.multiply(xc, scale, out=xc)
    if z is not None:
        t = z * coef_ln if tape else np.multiply(z, coef_ln, out=z)
        out = t if out is None else np.add(out, t, out=out)
    out += offset

    def bw(g, acc):
        g = np.ascontiguousarray(g)
        s0 = _row_sums(g.reshape(n * c, hw)).reshape(n, c, 1, 1)
        s0n = _col_sums(s0.reshape(n, c)).reshape(1, c, 1, 1)  # the batch sum of s0
        ys = {}  # per view: the sum of g * y_v over all but the channel
        dstd = {}  # per view: the std gradient
        gx = None
        if xc is not None:
            s1 = _row_sums((g * xc).reshape(n * c, hw)).reshape(n, c, 1, 1)
            q = 0.0
            if "in" in at:
                ys["in"] = _col_sums((r_in * s1).reshape(n, c)).reshape(1, c, 1, 1)
                dstd["in"] = -(coef_in * r_in * s1)
                q = coef_in * s0 * (-1.0 / hw)
            if "bn" in at:
                ys["bn"] = r_bn * _col_sums((s1 + shift * s0).reshape(n, c)).reshape(1, c, 1, 1)
                dstd["bn"] = -(coef_bn * ys["bn"])
                if not m.const:
                    q = q + coef_bn * s0n * (-1.0 / (n * hw))
            gx = g * scale
            gx += q
        if z is not None:
            gz = g * z
            lw = coef_ln.reshape(c)
            ys["ln"] = _col_sums(_row_sums(gz.reshape(n * c, hw)).reshape(n, c)).reshape(1, c, 1, 1)
            dstd["ln"] = np.matmul(lw, gz.reshape(n, c, hw)).reshape(n, 1, h, wd) * -r_ln
            t = g * coef_ln
            t -= np.matmul(lw, g.reshape(n, c, hw)).reshape(n, 1, h, wd) * (1.0 / c)
            t *= r_ln
            gx = t if gx is None else np.add(gx, t, out=gx)
        acc(x, gx)
        acc(std, np.concatenate([dstd[kind] for kind in at], axis=None).reshape(std.shape))
        for kind, t in zip(at, weights):
            if t is not None:
                acc(t, gd * ys[kind])
        acc(gamma, sum(w[kind] * ys[kind] for kind in at))
        acc(beta, s0n)

    return tensor._node(out, parents, bw)


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
        at = _check(self.channels, self._kinds, x.shape, training)
        running = (self.run_mean, self.run_var) if self._bn and not training else None
        var, m = variance(x, at, EPS, running)
        if self._bn and training:
            for buf, stat in zip((self.run_mean, self.run_var), m.stats["bn"]):
                buf *= 1.0 - MOMENTUM
                buf += MOMENTUM * stat
        return normalize(x, m, sqrt(add(var, EPS)), self._weights, self.gamma, self.beta)


class PlainNorm(_ViewSum):
    """Single-view normalization (bn | ln | in) with a channelwise affine."""

    KINDS = tuple(_VIEWS)

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
