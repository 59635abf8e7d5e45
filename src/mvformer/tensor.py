"""Dense rank-4 tensors with reverse-mode automatic differentiation.

Every value in this package is a ``Tensor``: a row-major (batch, channel,
height, width) float array with an optional gradient slot.  Scalars are
shape ``(1, 1, 1, 1)``, per-channel vectors ``(1, C, 1, 1)``, convolution
kernels ``(c_out, c_in/groups, kh, kw)``.  Ops record their inputs and a
backward rule on the produced tensor; ``backward(loss)`` materializes the
tape in topological order, accumulates gradients into the leaves and
consumes the tape as it goes.
Inside ``with grad_enabled(False):`` ops compute the same arrays but link
no tape, so their outputs hold no parents and no backward closures.

Storage is float32 by default.  Ops preserve the dtype of their inputs, so
a graph built from float64 leaves evaluates entirely in 64-bit (used by the
finite-difference gradient checks).
"""

from __future__ import annotations

import contextlib
import functools

import numpy as np


class ShapeError(ValueError):
    """Dimension mismatch between tensors (offending axes named in message)."""


class GraphError(RuntimeError):
    """Backward called on a non-scalar loss, a detached graph or a consumed one."""


_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """Rank-4 array with optional grad slot and tape linkage.

    Leaves created with ``requires_grad=True`` accumulate into ``grad``
    across backward passes (cleared by the optimizer).  Intermediate
    results drop their gradient after backward.  ``data`` must never be
    mutated once the tensor has been recorded as an input of another op.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim != 4:
            raise ShapeError(f"Tensor must be rank-4 (n, c, h, w); got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(value, requires_grad=False, dtype=np.float32):
        return Tensor(np.full((1, 1, 1, 1), value, dtype=dtype), requires_grad)

    @staticmethod
    def channel_vector(values, requires_grad=False, dtype=np.float32):
        arr = np.asarray(values, dtype=dtype).reshape(1, -1, 1, 1)
        return Tensor(arr, requires_grad)

    # -- properties --------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor; got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)


def _as_tensor(value, like=None):
    """Wrap python scalars as constant (1,1,1,1) tensors, matching dtype."""
    if isinstance(value, Tensor):
        return value
    dtype = like.dtype if like is not None else np.float32
    return Tensor.scalar(value, dtype=dtype)


_grad_on = True  # read by _node and normalize; set only through grad_enabled


@contextlib.contextmanager
def grad_enabled(flag):
    """Within the block, ops link a tape only if `flag` is true.

    The previous mode is restored on exit, also when the block raises, so
    blocks nest.  Leaves keep their ``requires_grad``; only op outputs are
    affected.
    """
    global _grad_on
    prev, _grad_on = _grad_on, bool(flag)
    try:
        yield
    finally:
        _grad_on = prev


def _node(data, parents, backward_fn):
    """Create an op output; the tape link exists only if grad is on and a parent needs it."""
    out = Tensor(data)
    if _grad_on and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _check_broadcast(a_shape, b_shape):
    for axis, (da, db) in enumerate(zip(a_shape, b_shape)):
        if da != db and da != 1 and db != 1:
            raise ShapeError(
                f"cannot broadcast axis {axis}: sizes {da} and {db} "
                f"(shapes {a_shape} vs {b_shape})"
            )


def _unbroadcast(grad, shape):
    """Sum gradient over axes that were broadcast, restoring `shape`."""
    if grad.shape == shape:
        return grad
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    return _sum_keep(grad, axes)


@functools.lru_cache(maxsize=64)
def _ones(n, dtype):
    """Read-only vector of `n` ones: the summing operand of `_sum_keep`'s products."""
    v = np.ones(n, dtype)
    v.flags.writeable = False
    return v


def _sum_keep(a, axes):
    """``np.add.reduce(a, axis=axes, keepdims=True)`` of a rank-4 array, as a fresh array.

    Every keepdims sum in this module goes through here, so an op and the
    composite of ops it fuses sum alike.  On a non-empty C-contiguous `a`,
    the four patterns the model uses, (2, 3), (1,), (0, 2, 3) and (0,), are
    BLAS matrix-vector products with a vector of ones, several times faster
    than numpy's multi-axis reduce at the model's shapes; summing over an
    extent of one is a copy.  Every other case is ``np.add.reduce``.
    """
    if not a.size or not a.flags.c_contiguous or axes not in ((2, 3), (1,), (0, 2, 3), (0,)):
        return np.add.reduce(a, axis=axes, keepdims=True)
    n, c, h, w = a.shape
    keep = tuple(1 if i in axes else d for i, d in enumerate(a.shape))
    if axes == (1,):
        out = a.copy() if c == 1 else np.matmul(_ones(c, a.dtype), a.reshape(n, c, h * w))
        return out.reshape(keep)
    if axes != (0,):  # (2, 3) or (0, 2, 3): sum each map first
        a = a.copy() if h * w == 1 else np.matmul(a.reshape(n * c, h * w), _ones(h * w, a.dtype))
        if axes == (2, 3):
            return a.reshape(keep)
    out = a.copy() if n == 1 else np.matmul(_ones(n, a.dtype), a.reshape(n, -1))
    return out.reshape(keep)


# -- elementwise ops ---------------------------------------------------------


def add(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    _check_broadcast(a.shape, b.shape)
    data = a.data + b.data

    def bw(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), bw)


def sub(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    _check_broadcast(a.shape, b.shape)
    data = a.data - b.data

    def bw(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(-g, b.shape))

    return _node(data, (a, b), bw)


def mul(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    _check_broadcast(a.shape, b.shape)
    data = a.data * b.data

    def bw(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), bw)


def div(a, b):
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    _check_broadcast(a.shape, b.shape)
    data = a.data / b.data

    def bw(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(-g * data / b.data, b.shape))

    return _node(data, (a, b), bw)


def square(x):
    data = x.data * x.data

    def bw(g, acc):
        acc(x, 2.0 * x.data * g)

    return _node(data, (x,), bw)


def sqrt(x):
    data = np.sqrt(x.data)

    def bw(g, acc):
        acc(x, g * (0.5 / data))

    return _node(data, (x,), bw)


def relu(x):
    """max(x, 0); NaN propagates, -0.0 maps to +0.0."""
    data = np.maximum(x.data, 0)

    def bw(g, acc):
        acc(x, g * (data > 0))

    return _node(data, (x,), bw)


def exp(x):
    data = np.exp(x.data)

    def bw(g, acc):
        acc(x, g * data)

    return _node(data, (x,), bw)


def log(x):
    data = np.log(x.data)

    def bw(g, acc):
        acc(x, g / x.data)

    return _node(data, (x,), bw)


# -- reductions ---------------------------------------------------------------


def _norm_axes(x, axes):
    if axes is None:
        return (0, 1, 2, 3)
    axes = tuple(sorted(int(a) % 4 for a in axes))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axes}")
    return axes


def tsum(x, axes=None):
    """Sum over `axes` (all by default); result keeps rank 4."""
    axes = _norm_axes(x, axes)
    data = _sum_keep(x.data, axes)

    def bw(g, acc):
        acc(x, np.broadcast_to(g, x.shape))

    return _node(data, (x,), bw)


def _count(shape, axes):
    count = 1
    for a in axes:
        count *= shape[a]
    return count


def mean(x, axes=None):
    """Arithmetic mean over `axes`; result keeps rank 4."""
    axes = _norm_axes(x, axes)
    count = _count(x.shape, axes)
    if count == 0:
        raise ShapeError(f"mean over empty extent (axes {axes} of shape {x.shape})")
    data = _mean_keep(x.data, axes, count)

    def bw(g, acc):
        acc(x, np.broadcast_to(g / count, x.shape))

    return _node(data, (x,), bw)


def _mean_keep(a, axes, count):
    """Keepdims mean of `a` over `axes` (`count` elements each), by `_sum_keep`."""
    out = _sum_keep(a, axes)
    out /= count
    return out


def variance(x, axes):
    """Population variance over `axes` as one tape node, and the mean.

    Returns ``(mu, var)``: the mean as a plain keepdims array and the
    variance (divided by the element count) as a tensor whose only parent
    is `x`.  The mean carries no tape link: the variance's gradient does not
    depend on it (centred values sum to zero), and `normalize` folds the
    mean's gradient into its own backward.  ``var`` is bitwise equal to
    ``mean(square(sub(x, mean(x, axes))), axes)``.
    """
    axes = _norm_axes(x, axes)
    if axes == ():
        raise ShapeError("variance needs at least one reduction axis")
    count = _count(x.shape, axes)
    if count == 0:
        raise ShapeError(f"variance over empty extent (axes {axes} of shape {x.shape})")
    mu = _mean_keep(x.data, axes, count)
    sq = x.data - mu
    np.multiply(sq, sq, out=sq)
    data = _mean_keep(sq, axes, count)

    def bw(g, acc):
        gx = x.data - mu
        gx *= g * (2.0 / count)
        acc(x, gx)

    return mu, _node(data, (x,), bw)


def normalize(x, views, gamma=None, beta=None):
    """``gamma * sum_v weight_v * (x - mu_v) / std_v + beta``, recorded as one tape node.

    Each view is ``(axes, mu, std, weight)``: `mu` is the mean of `x` over
    `axes` as a plain keepdims array (as `variance` returns it), `std` a
    keepdims tensor and `weight` a tensor or None.  ``axes=()`` marks
    constant statistics (batch norm's running values at inference): `mu` is
    then any broadcastable array.  `gamma` and `beta` are optional tensors.

    Each element is computed as subtract, divide, times the weight, summed
    over the views left to right, then times gamma plus beta, so one view
    without weight or affine is bitwise ``div(sub(x, mu), std)``.  The
    backward folds each mean's gradient in: with ``d_v = g * gamma *
    weight_v``, `x` receives ``sum_v (d_v - mean(d_v)) / std_v`` (means over
    the view's axes, none for ``axes=()``), ``std_v`` receives
    ``-sum(d_v * y_v) / std_v`` with ``y_v = (x - mu_v) / std_v``, and the
    weights, gamma and beta their product-rule sums.  Each ``y_v`` and the
    weighted sum are kept, not `x`.  Without a tape the views go through one
    scratch buffer into the output and nothing is kept.
    """
    views = [(_norm_axes(x, axes), mu, std, w) for axes, mu, std, w in views]
    parents = [x] + [t for _, _, std, w in views for t in (std, w) if t is not None]
    parents += [t for t in (gamma, beta) if t is not None]
    tape = _grad_on and any(p.requires_grad for p in parents)
    s = scratch = None
    ys = []
    for axes, mu, std, w in views:
        if tape or s is None:
            y = x.data - mu
        else:
            if scratch is None:
                scratch = np.empty_like(s)
            y = np.subtract(x.data, mu, out=scratch)
        y /= std.data
        if tape:
            ys.append(y)
            t = y if w is None else y * w.data
        else:
            t = y if w is None else np.multiply(y, w.data, out=y)
        if s is None:  # a kept, unweighted y must not become the running sum
            s = t.copy() if t is y and tape and len(views) > 1 else t
        else:
            s += t
    out = s
    if gamma is not None:
        out = out * gamma.data if tape else np.multiply(out, gamma.data, out=out)
    if beta is not None:
        out = out + beta.data if tape and out is s else np.add(out, beta.data, out=out)

    def bw(g, acc):
        if beta is not None and beta.requires_grad:
            acc(beta, _unbroadcast(g, beta.shape))
        if gamma is not None:
            if gamma.requires_grad:
                acc(gamma, _unbroadcast(g * s, gamma.shape))
            g = g * gamma.data
        gx = None
        for (axes, _, std, w), y in zip(views, ys):
            if w is None:
                d = g
            else:
                if w.requires_grad:
                    acc(w, _unbroadcast(g * y, w.shape))
                d = g * w.data
            if std.requires_grad:
                gs = _unbroadcast(d * y, std.shape)
                gs /= std.data
                acc(std, np.negative(gs, out=gs))
            if x.requires_grad:
                if axes:
                    d = d - _mean_keep(d, axes, _count(x.shape, axes))
                    d /= std.data
                else:
                    d = d / std.data
                if gx is None:
                    gx = d
                else:
                    gx += d
        if gx is not None:
            acc(x, gx)

    return _node(out, parents, bw)


def global_avg_pool(x):
    """Per-channel spatial mean: (n, c, h, w) -> (n, c, 1, 1)."""
    return mean(x, (2, 3))


# -- channel split / concat ----------------------------------------------------


def channel_split(x, sizes):
    """Slice `x` along the channel axis into len(sizes) tensors.

    Zero sizes yield empty (n, 0, h, w) tensors that downstream code skips;
    concatenating the outputs in order reproduces `x` bitwise.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 0 for s in sizes):
        raise ShapeError(f"negative split size in {sizes}")
    if sum(sizes) != x.shape[1]:
        raise ShapeError(f"split sizes {sizes} sum to {sum(sizes)}, input has {x.shape[1]} channels")
    parts = []
    offset = 0
    for s in sizes:
        lo, hi = offset, offset + s
        offset = hi
        data = x.data[:, lo:hi]

        def bw(g, acc, lo=lo, hi=hi):
            full = np.zeros_like(x.data)
            full[:, lo:hi] = g
            acc(x, full)

        parts.append(_node(data, (x,), bw))
    return parts


def channel_concat(parts):
    """Stack tensors along the channel axis, in argument order."""
    parts = list(parts)
    if not parts:
        raise ShapeError("channel_concat needs at least one part")
    ref = parts[0]
    for i, p in enumerate(parts[1:], start=1):
        for axis in (0, 2, 3):
            if p.shape[axis] != ref.shape[axis]:
                raise ShapeError(
                    f"channel_concat part {i} disagrees on axis {axis}: "
                    f"{p.shape} vs {ref.shape}"
                )
    data = np.concatenate([p.data for p in parts], axis=1)
    bounds = np.cumsum([0] + [p.shape[1] for p in parts])

    def bw(g, acc):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            if p.requires_grad:
                acc(p, g[:, lo:hi])

    return _node(data, tuple(parts), bw)


# -- convolution -----------------------------------------------------------------


def _pair(v):
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


def conv2d(x, w, b=None, stride=1, pad=0, groups=1):
    """Cross-correlation of `x` with kernel `w` (no kernel flip).

    `w` has shape (c_out, c_in/groups, kh, kw); `b`, when given, is a
    per-channel (1, c_out, 1, 1) tensor.  Output spatial dims follow the
    floor convention: (h + 2*pad - kh) // stride + 1.

    The kernel is chosen from the call's shapes; each case has one
    implementation and the output is always a fresh C-contiguous array:

    - ``_pointwise`` (1x1, stride 1, pad 0, groups == 1): one matmul over
      (n, c, h*w);
    - same-size stride-1 depthwise (groups == c_in == c_out), h*w <= n:
      ``_depthwise_unrolled``, one (h*w, h*w) map matrix per channel and one
      batched matmul per pass.  The matrix is then no bigger than the
      channel's batch data, so building it pays back within the call;
    - the same with h*w > n: ``_depthwise_banded``, each kernel row lowered
      to a band matrix along the width.  Output tiles of t = min(8, w)
      columns read windows of t + kw - 1 padded columns over every kernel
      row, copied into one column matrix and multiplied by a
      (rows * (t + kw - 1), t) band per channel in one batched matmul;
      k x 1 filters run on a transposed view.  On an h-row map with pad p, kernel row u reaches
      data only for u in [max(0, p-h+1), min(kh, p+h)), likewise for
      columns; both depthwise kernels skip the other taps, and their weight
      gradient is exactly zero;
    - everything else (stem, downsample, grouped, strided): ``_general``,
      im2col and one batched matmul.

    ``analysis.cost_report`` counts nominal MACs whatever a kernel skips or adds.
    """
    sh, sw = _pair(stride)
    ph, pw = _pair(pad)
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    if groups < 1 or cin % groups or cout % groups:
        raise ShapeError(f"conv2d: groups={groups} must divide c_in={cin} and c_out={cout}")
    if cin // groups != cin_g:
        raise ShapeError(
            f"conv2d: weight expects {cin_g} channels per group, input supplies {cin // groups} "
            f"(c_in={cin}, groups={groups})"
        )
    if kh < 1 or kw < 1:
        raise ShapeError(f"conv2d: kernel dims must be >= 1, got ({kh}, {kw})")
    hout = (h + 2 * ph - kh) // sh + 1
    wout = (wd + 2 * pw - kw) // sw + 1
    if hout < 1 or wout < 1:
        raise ShapeError(
            f"conv2d: input spatial ({h}, {wd}) too small for kernel ({kh}, {kw}) "
            f"with pad ({ph}, {pw}), stride ({sh}, {sw})"
        )
    if b is not None and b.shape != (1, cout, 1, 1):
        raise ShapeError(f"conv2d: bias must be (1, {cout}, 1, 1), got {b.shape}")

    unit_stride = sh == sw == 1
    if unit_stride and groups == 1 and kh == kw == 1 and ph == pw == 0:
        out, grads = _pointwise(x.data, w.data)
    elif unit_stride and groups == cin == cout and (hout, wout) == (h, wd):
        depthwise = _depthwise_unrolled if h * wd <= n else _depthwise_banded
        out, grads = depthwise(x.data, w.data, ph, pw)
    else:
        out, grads = _general(x.data, w.data, (sh, sw), (ph, pw), groups, (hout, wout))
    if b is not None:
        out += b.data

    parents = (x, w) if b is None else (x, w, b)

    def bw(g, acc):
        if b is not None and b.requires_grad:
            acc(b, _sum_keep(g, (0, 2, 3)))
        gx, gw = grads(g, x.requires_grad, w.requires_grad)
        if gw is not None:
            acc(w, gw)
        if gx is not None:
            acc(x, gx)

    return _node(out, parents, bw)


# Each kernel returns (output without bias, grads) where
# grads(g, need_x, need_w) -> (x-grad or None, w-grad or None).


def _pointwise(x, w):
    n, cin, h, wd = x.shape
    cout = w.shape[0]
    x3 = x.reshape(n, cin, h * wd)
    w2 = w.reshape(cout, cin)
    out = np.matmul(w2, x3).reshape(n, cout, h, wd)

    def grads(g, need_x, need_w):
        g3 = g.reshape(n, cout, h * wd)
        gx = np.matmul(w2.T, g3).reshape(x.shape) if need_x else None
        gw = np.tensordot(g3, x3, axes=([0, 2], [0, 2])).reshape(w.shape) if need_w else None
        return gx, gw

    return out, grads


_BAND_TILE = 8


@functools.lru_cache(maxsize=64)
def _band_table(rows, kw, t):
    """Read-only (rows * span, t) gather table of a banded kernel, span = t + kw - 1.

    Entry ``[l * span + j, o]`` is the flat tap ``l * kw + j - o`` that
    carries column j of a tile's input window to its output column o through
    kernel row l, else ``rows * kw`` (a zero slot).
    """
    d = np.arange(t + kw - 1)[:, None] - np.arange(t)
    taps = np.where((d >= 0) & (d < kw), np.arange(rows)[:, None, None] * kw + d, rows * kw)
    taps = taps.reshape(-1, t)
    taps.flags.writeable = False
    return taps


def _depthwise_banded(x, w, ph, pw):
    n, c = x.shape[:2]
    w_shape = w.shape
    transposed = w.shape[2] > w.shape[3]  # k x 1: band along the rows instead
    if transposed:
        x, w, ph, pw = x.transpose(0, 1, 3, 2), w.transpose(0, 1, 3, 2), pw, ph
    hh, ww = x.shape[2:]
    kh, kw = w.shape[2:]
    # taps outside these ranges only ever read padding; the crop is symmetric,
    # so the cropped kernel is again a same-size conv, with pads p and q
    r0, c0 = max(0, ph - hh + 1), max(0, pw - ww + 1)
    wc = w.reshape(c, kh, kw)[:, r0 : kh - r0, c0 : kw - c0]
    kr, kc = wc.shape[1:]
    p, q = ph - r0, pw - c0
    t = min(_BAND_TILE, ww)
    nt = -(-ww // t)
    span = t + kc - 1
    table = _band_table(kr, kc, t)
    dtype = np.result_type(x, w)

    def columns(a):
        """(c, n*hh*nt, kr*span) windows of `a`, zero-padded, one row per output tile."""
        buf = np.zeros((c, n, hh + kr - 1, nt * t + kc - 1), dtype)
        buf[:, :, p : p + hh, q : q + ww] = a.transpose(1, 0, 2, 3)
        sc, sn, sr, se = buf.strides
        windows = np.lib.stride_tricks.as_strided(
            buf, (c, n, hh, nt, kr, span), (sc, sn, sr, se * t, sr, se), writeable=False
        )
        return windows.reshape(c, n * hh * nt, kr * span)

    def apply(a, kernel):
        """`a` cross-correlated with the (c, kr, kc) `kernel`, as (n, c, h, wd)."""
        wz = np.zeros((c, kr * kc + 1), kernel.dtype)
        wz[:, :-1] = kernel.reshape(c, -1)
        o = np.matmul(columns(a), wz[:, table]).reshape(c, n, hh, nt * t)[..., :ww]
        return np.ascontiguousarray(o.transpose(1, 0, 3, 2) if transposed else o.transpose(1, 0, 2, 3))

    def grads(g, need_x, need_w):
        if transposed:
            g = g.transpose(0, 1, 3, 2)
        gx = gw = None
        if need_x:
            gx = apply(g, wc[:, ::-1, ::-1])
        if need_w:
            gp = np.zeros((c, n, hh, nt * t), g.dtype)
            gp[..., :ww] = g.transpose(1, 0, 2, 3)
            gband = np.matmul(columns(x).transpose(0, 2, 1), gp.reshape(c, -1, t))
            # tap (l, v) is the sum over o of band entry (l * span + o + v, o)
            s0, e = gband.strides[0], gband.itemsize
            diag = np.lib.stride_tricks.as_strided(
                gband, (c, kr, kc, t), (s0, span * t * e, t * e, (t + 1) * e), writeable=False
            )
            gw = np.zeros(w_shape, g.dtype)
            frame = gw.transpose(0, 1, 3, 2) if transposed else gw
            frame[:, 0, r0 : kh - r0, c0 : kw - c0] = diag.sum(axis=3)
        return gx, gw

    return apply(x, wc), grads


@functools.lru_cache(maxsize=64)
def _tap_table(h, wd, kh, kw, ph, pw):
    """Read-only tables of a same-size stride-1 conv on an h x wd map.

    ``taps[i, o]``: the flat tap ``u * kw + v`` carrying input i to output o,
    else ``kh * kw`` (a zero column).  ``order``: the live (i, o) pairs by
    tap; ``starts``: where each tap's run begins; ``live``: those taps.
    """
    iy, ix = np.divmod(np.arange(h * wd), wd)
    u = iy[:, None] - iy[None, :] + ph
    v = ix[:, None] - ix[None, :] + pw
    taps = np.where((u >= 0) & (u < kh) & (v >= 0) & (v < kw), u * kw + v, kh * kw).ravel()
    order = np.argsort(taps, kind="stable")
    order = order[taps[order] < kh * kw]
    live, starts = np.unique(taps[order], return_index=True)
    tables = (taps.reshape(h * wd, h * wd), order, starts, live)
    for t in tables:
        t.flags.writeable = False
    return tables


def _depthwise_unrolled(x, w, ph, pw):
    n, c, h, wd = x.shape
    _, _, kh, kw = w.shape
    kk = kh * kw
    taps, order, starts, live = _tap_table(h, wd, kh, kw, ph, pw)

    def map_matrix():
        """(c, hw in, hw out) weights; rebuilt in the backward so only x is kept."""
        wz = np.zeros((c, kk + 1), w.dtype)
        wz[:, :kk] = w.reshape(c, kk)
        return wz[:, taps]

    xc = x.reshape(n, c, h * wd).transpose(1, 0, 2)  # (c, n, hw), a view
    out = np.empty((n, c, h * wd), np.result_type(x, w))
    np.matmul(xc, map_matrix(), out=out.transpose(1, 0, 2))

    def grads(g, need_x, need_w):
        gc = g.reshape(n, c, h * wd).transpose(1, 0, 2)
        gx = gw = None
        if need_x:
            gx = np.empty((n, c, h * wd), g.dtype)
            np.matmul(gc, map_matrix().transpose(0, 2, 1), out=gx.transpose(1, 0, 2))
            gx = gx.reshape(x.shape)
        if need_w:
            pairs = np.matmul(xc.transpose(0, 2, 1), gc).reshape(c, -1)
            gw = np.zeros((c, kk), g.dtype)
            gw[:, live] = np.add.reduceat(pairs[:, order], starts, axis=1)
            gw = gw.reshape(w.shape)
        return gx, gw

    return out.reshape(x.shape), grads


def _general(x, w, stride, pad, groups, out_hw):
    sh, sw = stride
    ph, pw = pad
    hout, wout = out_hw
    n, _, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    cout_g = cout // groups
    cols_shape = (groups, cin_g * kh * kw, n * hout * wout)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    sn, sc, srow, scol = xp.strides
    # reshaping this window view copies it into the im2col matrix; the
    # backward rebuilds it, so only xp is kept
    patches = np.lib.stride_tricks.as_strided(
        xp,
        shape=(groups, cin_g, kh, kw, n, hout, wout),
        strides=(sc * cin_g, sc, srow, scol, sn, srow * sh, scol * sw),
        writeable=False,
    )
    wg = w.reshape(groups, cout_g, cin_g * kh * kw)
    out = np.matmul(wg, patches.reshape(cols_shape))
    out = np.ascontiguousarray(out.reshape(groups, cout_g, n, hout * wout).transpose(2, 0, 1, 3))
    out = out.reshape(n, cout, hout, wout)

    def grads(g, need_x, need_w):
        gg = g.reshape(n, groups, cout_g, hout * wout).transpose(1, 2, 0, 3)
        gg = gg.reshape(groups, cout_g, n * hout * wout)
        gx = gw = None
        if need_w:
            gw = np.matmul(gg, patches.reshape(cols_shape).transpose(0, 2, 1)).reshape(w.shape)
        if need_x:
            gcols = np.matmul(wg.transpose(0, 2, 1), gg).reshape(patches.shape)
            gxp = np.zeros_like(xp)
            gxp_g = gxp.reshape(n, groups, cin_g, *xp.shape[2:]).transpose(1, 2, 0, 3, 4)
            for u in range(kh):
                for v in range(kw):
                    gxp_g[:, :, :, u : u + hout * sh : sh, v : v + wout * sw : sw] += gcols[:, :, u, v]
            gx = gxp[:, :, ph : ph + h, pw : pw + wd]
        return gx, gw

    return out, grads


# -- backward ----------------------------------------------------------------------


def _topo_order(root):
    """Materialize the tape: every node's inputs precede it, each visited once.

    Iterative depth-first postorder; a node is appended only after every
    grad-requiring parent has been appended.
    """
    order = []
    done = set()
    stack = [(root, 0)]  # (node, index of next parent to visit)
    while stack:
        node, i = stack.pop()
        if id(node) in done:
            continue
        parents = node._parents
        n = len(parents)
        while i < n and (not parents[i].requires_grad or id(parents[i]) in done):
            i += 1
        if i < n:
            stack.append((node, i + 1))
            stack.append((parents[i], 0))
        else:
            done.add(id(node))
            order.append(node)
    return order


def _consumed(g, acc):
    raise GraphError("graph already consumed: backward has run through this node")


def backward(loss):
    """Populate gradients of every reachable leaf with d(loss)/d(leaf).

    `loss` must be a scalar on the tape.  Leaf gradients accumulate across
    calls; intermediate gradients are dropped.
    Gradient arrays are never mutated in place.  The tape is consumed: once
    a node's backward rule has run, the node drops its inputs and rule, so
    the arrays they held are freed as the pass proceeds, and a second
    backward through that node raises ``GraphError``.
    """
    if loss.size != 1:
        raise GraphError(f"backward needs a scalar loss; got shape {loss.shape}")
    if not loss.requires_grad:
        raise GraphError("loss is not attached to any differentiable input (detached graph)")

    grads = {id(loss): np.ones_like(loss.data)}

    def acc(t, g):
        if not t.requires_grad:
            return
        key = id(t)
        if key in grads:
            grads[key] = grads[key] + g
        else:
            grads[key] = g

    for node in reversed(_topo_order(loss)):
        g = grads.pop(id(node), None)
        if g is None:
            raise GraphError("tape node visited without a gradient (graph inconsistency)")
        if node._backward is not None:
            node._backward(g, acc)
            node._parents = ()
            node._backward = _consumed
        else:
            node.grad = g if node.grad is None else node.grad + g
