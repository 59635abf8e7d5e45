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
import operator
import types

import numpy as np

from . import tensor
from .module import Module
from .tensor import ShapeError, _col_sums, _count, _row_sums, add, sqrt

EPS = 1e-5
MOMENTUM = 0.1
_requires_grad = operator.attrgetter("requires_grad")

# reduction axes of each view (counted by the checks, named when empty; the other axes size its
# packed variances), and the error raised when they span fewer than two elements
_VIEWS = {
    "bn": ((0, 2, 3), "batch norm: batch statistics need n*h*w >= 2 per channel, got {0}*{2}*{3}"),
    "ln": ((1,), "layer norm: needs C >= 2 channels, got {1}"),
    "in": ((2, 3), "instance norm: needs h*w >= 2 spatial positions, got {2}x{3}"),
}


class DegenerateInputError(ValueError):
    """Normalization over a reduction extent too small to carry statistics."""


class _Plan:
    """What every norm call of one signature would otherwise work out again; never rebound.

    ``slices``: ``variance``'s read-only ``{kind: slice}`` of the packed variances, each view
    as long as the elements its reduction keeps, ``size`` their total, and ``bn``, ``ln``,
    ``in_`` those slices or None.  The input's ``shape`` (n, c, h, w) is worked on as ``cols``
    (n, c, h*w), ``maps`` (n*c, h*w) and ``pairs`` (n, c).  ``in_dropped``: an ``in`` view of
    1x1 maps, which contributes exactly zero.  ``div_n``, ``div_c``, ``div_hw`` (the counts),
    ``one`` and ``zero``: the forward's numbers as read-only 0-d arrays of the input's dtype,
    which numpy applies faster than Python numbers, with their bits (each is exact or meets
    arrays of that dtype).  The backward's quotients stay Python numbers, as its gradients
    may be of a wider dtype.
    """

    __slots__ = (
        "slices", "size", "bn", "ln", "in_", "in_dropped", "shape", "cols", "maps", "pairs", "div_n", "div_c", "div_hw",
        "one", "zero",
    )

    def __init__(self, kinds, shape, dtype):
        """The plan of views `kinds` over inputs of `shape` and `dtype`, unchecked."""
        n, c, hw = shape[0], shape[1], shape[2] * shape[3]
        slices, start = {}, 0
        for kind in kinds:
            size = _count(shape, [i for i in range(4) if i not in _VIEWS[kind][0]])
            slices[kind] = slice(start, start + size)
            start += size
        self.slices, self.size = types.MappingProxyType(slices), start
        self.bn, self.ln, self.in_ = map(slices.get, _VIEWS)
        self.in_dropped = "in" in slices and hw == 1
        self.shape, self.cols, self.maps, self.pairs = shape, (n, c, hw), (n * c, hw), (n, c)
        self.div_n, self.div_c, self.div_hw, self.one, self.zero = (
            np.broadcast_to(np.array(v, dtype), ()) for v in (n, c, hw, 1, 0)  # read-only views
        )


@functools.lru_cache(maxsize=256)
def _check(channels, kinds, shape, dtype, training):
    """The plan of a norm call: every check, once per signature, then its `_Plan`.

    Keyed by the input's `dtype` too, for the plan's numbers.  In order: the
    channel count; the ``bn`` guard in training and the guard of a plain
    ``in`` view (a weighted ``in`` view is unguarded, on 1x1 maps it
    contributes exactly zero); an empty extent of any view; the ``ln``
    guard.  Cached: every call shares the plan, and a bad signature raises
    on every call, as exceptions are not cached.
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
    return _Plan(kinds, shape, dtype)


class Moments:
    """The plain arrays `variance` computes and `normalize` reads; no tape links.

    ``at``: the call's `_Plan` from `_check`.  ``stats``: each view's
    ``(mean, variance)`` as flat arrays, keyed by kind: ``bn`` per channel
    (c,), ``ln`` per pixel (n, h*w) and ``in`` per map (n*c,).  ``xc``: `x`
    centred on its per-map means, (n, c, h*w), present with a ``bn`` or
    ``in`` view, and ``shift`` the per-map minus the per-channel means,
    (n, c, 1).  ``z``: the ``ln`` view's standardized values, (n, c, h*w).
    ``const``: the ``bn`` statistics are given constants.
    """

    __slots__ = ("at", "stats", "xc", "shift", "z", "const")


def variance(x, at, eps, running=None):
    """Population variances of `x` over the norm views of `at`, packed into one tape node.

    `at` is the call's `_Plan`, over an ordered subset of `_VIEWS`: batch
    statistics per channel over (0, 2, 3), layer statistics per pixel over
    (1,) and instance statistics per map over (2, 3).  Returns ``(var, m)``:
    a (1, 1, 1, k) tensor holding every view's variances, flattened into
    ``at.slices``, whose only parent is `x`, and the `Moments` that
    `normalize` reads.

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
    n, c, hw = at.cols
    x3 = xd.reshape(at.cols)
    const = running is not None and at.bn is not None
    stats = {}
    dtype = xd.dtype  # of the packed variances: the views' promoted, as by concatenation
    if const:
        dtype = running[1].dtype if len(at.slices) == 1 else np.result_type(xd, running[1])
    packed = np.empty(at.size, dtype)
    xc = shift = z = std_ln = sq = None
    if at.in_ is not None or at.bn is not None:
        mu = _row_sums(xd.reshape(at.maps))
        mu /= at.div_hw
        mu3 = mu.reshape(n, c, 1)
        xc = x3 - mu3
        sq = xc * xc
        var = _row_sums(sq.reshape(at.maps))
        var /= at.div_hw
        if at.in_ is not None:
            stats["in"] = mu, var
            packed[at.in_] = var
    if at.bn is not None:
        if const:
            mu_c, var_c = running
        else:
            mu_c = _col_sums(mu.reshape(at.pairs))
            mu_c /= at.div_n
        shift = mu3 - mu_c.reshape(c, 1)
        if not const:
            s = shift.reshape(at.pairs)
            var_c = _col_sums(var.reshape(at.pairs) + s * s)
            var_c /= at.div_n
        stats["bn"] = mu_c, var_c
        packed[at.bn] = var_c
    if at.ln is not None:
        mu_p = _col_sums(x3)
        mu_p /= at.div_c
        xl = x3 - mu_p.reshape(n, 1, hw)
        sq = np.multiply(xl, xl, out=sq)
        var_p = _col_sums(sq)
        var_p /= at.div_c
        std_ln = np.sqrt(var_p + eps)
        z = np.multiply(xl, (at.one / std_ln).reshape(n, 1, hw), out=xl)
        stats["ln"] = mu_p, var_p
        packed[at.ln] = var_p.reshape(-1)

    def bw(g, acc):
        g = g.reshape(-1)
        gc = None if at.bn is None or const else g[at.bn].reshape(c, 1)
        gx = None
        if at.in_ is not None or gc is not None:
            k = g[at.in_].reshape(n, c, 1) * (2.0 / hw) if at.in_ is not None else 0.0
            if gc is not None:  # x - mu is xc + shift
                kc = gc * (2.0 / (n * hw))
                k = k + kc
            gx = xc * k
            if gc is not None:
                gx += shift * kc
        if z is not None:
            t = z * (g[at.ln].reshape(n, hw) * std_ln * (2.0 / c)).reshape(n, 1, hw)
            gx = t if gx is None else np.add(gx, t, out=gx)
        acc(x, gx.reshape(at.shape))

    m = Moments()
    m.at, m.stats, m.xc, m.shift, m.z, m.const = at, stats, xc, shift, z, const
    constant = const and len(at.slices) == 1
    return tensor._node(packed.reshape(1, 1, 1, -1), () if constant else (x,), bw), m


def normalize(x, m, std, weights, gamma, beta):
    """``gamma * sum_v weight_v * (x - mu_v) / std_v + beta``, recorded as one tape node.

    `m` and `std` come from ``variance``: `std` is ``sqrt(var + eps)`` of its
    packed variances, laid out by ``m.at.slices``.  `weights` holds a tensor
    per view in the order of ``m.at.slices``, or none for a single view,
    whose weight is one (a skipped ``1 *`` is exact); `gamma` and `beta` are
    (1, c, 1, 1) tensors.  With ``r = 1 / std``, the ``in`` and ``bn`` views
    are affine in ``xc`` per (n, c), so the output is ``xc * scale + offset +
    ln_w * z`` on the plan's ``cols``, with per-(n, c) `scale` and `offset`
    and ``ln_w = gamma * weight`` of the ``ln`` view.  An ``in`` view of 1x1
    maps is identically zero and drops out exactly, from the output and every
    gradient.

    The backward is closed-form.  Every weight, gamma, beta and std gradient
    comes from the per-(n, c) sums of g, ``g * xc`` and ``g * z`` and the
    per-pixel channel sums of ``ln_w * g`` and ``ln_w * g * z``.  `x`
    receives each view's gradient with its mean's gradient folded in (none
    for constant ``bn`` statistics): ``g * scale + q + (ln_w * g -
    mean_c(ln_w * g)) * r`` with q per (n, c).  Only ``xc`` and ``z`` are kept; without a tape the
    output is written over them.
    """
    at, xc, shift, z, const = m.at, m.xc, m.shift, m.z, m.const
    parents = (x, std, *weights, gamma, beta)
    tape = tensor._grad_on and any(map(_requires_grad, parents))
    n, c, hw = at.cols
    r = (1.0 / std.data).reshape(-1)  # std may be of the running statistics' dtype
    gd = gamma.data.reshape(c, 1)
    wv = {}  # each view's weight per channel
    for kind, t in zip(at.slices, weights):
        wv[kind] = t.data.reshape(c, 1)
    if not wv and r.dtype != x.data.dtype:  # a weight of one in x's dtype would promote r
        r = r.astype(np.result_type(r, x.data))
    offset = beta.data.reshape(c, 1)
    scale = at.zero  # the coefficients add to +0.0, so a -0.0 one scales by +0.0
    if at.in_ is not None:
        r_in = at.zero if at.in_dropped else r[at.in_].reshape(n, c, 1)
        coef_in = gd * (wv["in"] * r_in) if wv else gd * r_in
        scale = scale + coef_in
    if at.bn is not None:
        r_bn = r[at.bn].reshape(c, 1)
        coef_bn = gd * (wv["bn"] * r_bn) if wv else gd * r_bn
        scale = scale + coef_bn
        offset = coef_bn * shift + offset
    if at.ln is not None:
        r_ln = r[at.ln].reshape(n, 1, hw)
        coef_ln = gd * wv["ln"] if wv else gd
    out = None
    if xc is not None:
        out = xc * scale if tape else np.multiply(xc, scale, out=xc)
    if z is not None:
        t = z * coef_ln if tape else np.multiply(z, coef_ln, out=z)
        out = t if out is None else np.add(out, t, out=out)
    out += offset

    def bw(g, acc):
        g = np.ascontiguousarray(g).reshape(at.cols)
        s0 = _row_sums(g.reshape(at.maps)).reshape(n, c, 1)
        s0n = _col_sums(s0.reshape(at.pairs)).reshape(c, 1)  # the batch sum of s0
        ys = {}  # per view: the sum of g * y_v over all but the channel
        dstd = {}  # per view: the std gradient
        gx = None
        if xc is not None:
            s1 = _row_sums((g * xc).reshape(at.maps)).reshape(n, c, 1)
            q = 0.0
            if at.in_ is not None:
                ys["in"] = _col_sums((r_in * s1).reshape(at.pairs)).reshape(c, 1)
                dstd["in"] = -(coef_in * r_in * s1)
                q = coef_in * s0 * (-1.0 / hw)
            if at.bn is not None:
                ys["bn"] = r_bn * _col_sums((s1 + shift * s0).reshape(at.pairs)).reshape(c, 1)
                dstd["bn"] = -(coef_bn * ys["bn"])
                if not const:
                    q = q + coef_bn * s0n * (-1.0 / (n * hw))
            gx = g * scale
            gx += q
        if z is not None:
            gz = g * z
            lw = coef_ln.reshape(c)
            ys["ln"] = _col_sums(_row_sums(gz.reshape(at.maps)).reshape(at.pairs)).reshape(c, 1)
            dstd["ln"] = np.matmul(lw, gz).reshape(n, 1, hw) * -r_ln
            t = g * coef_ln
            t -= np.matmul(lw, g).reshape(n, 1, hw) * (1.0 / c)
            t *= r_ln
            gx = t if gx is None else np.add(gx, t, out=gx)
        acc(x, gx.reshape(at.shape))
        acc(std, np.concatenate([dstd[kind] for kind in at.slices], axis=None).reshape(1, 1, 1, -1))
        for kind, t in zip(at.slices, weights):  # every parameter is (1, c, 1, 1)
            acc(t, (gd * ys[kind]).reshape(1, c, 1, 1))
        acc(gamma, sum(wv[kind] * ys[kind] if wv else ys[kind] for kind in at.slices).reshape(1, c, 1, 1))
        acc(beta, s0n.reshape(1, c, 1, 1))

    return tensor._node(out.reshape(at.shape), parents, bw)


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
        weights = []
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
        at = _check(self.channels, self._kinds, x.data.shape, x.data.dtype, training)
        running = (self._buffers["run_mean"], self._buffers["run_var"]) if self._bn else None
        var, m = variance(x, at, EPS, None if training else running)
        if running and training:
            for buf, stat in zip(running, m.stats["bn"]):
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
