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

No norm view is named here: ``norm`` owns the views, their statistics and
their fused nodes, which it makes with this module's ``_node``.
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


@functools.lru_cache(maxsize=64)
def _constant(value, dtype):
    """A read-only (1,1,1,1) constant, built once per (value, dtype) and shared by every op."""
    t = Tensor.scalar(value, dtype=dtype)
    t.data.flags.writeable = False
    return t


def _as_tensor(value, like=None):
    """Wrap python scalars as constant (1,1,1,1) tensors, matching dtype."""
    if isinstance(value, Tensor):
        return value
    dtype = like.dtype if like is not None else np.float32
    if isinstance(value, (int, float)) and value != 0:  # 0.0 and -0.0 would share a cache key
        return _constant(value, dtype)
    return Tensor.scalar(value, dtype=dtype)


_grad_on = True  # read by _node and norm.normalize; set only through grad_enabled


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
    """Wrap the array an op made as its output; the tape link exists only if grad is on and a parent needs it.

    `data` must be a rank-4 float32 or float64 ndarray.  It is not checked:
    ``Tensor(...)`` checks every array built outside an op, and an op's
    arithmetic on such arrays gives another.
    """
    out = object.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_on and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
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
    """Read-only vector of `n` ones: the summing operand of the sums below."""
    v = np.ones(n, dtype)
    v.flags.writeable = False
    return v


def _row_sums(a):
    """Sums over the last axis of a C-contiguous array, as a fresh array.

    One BLAS matrix-vector product with a vector of ones, several times
    faster than numpy's reduce at the model's shapes; summing one element
    is a copy.
    """
    k = a.shape[-1]
    return a[..., 0].copy() if k == 1 else np.matmul(a, _ones(k, a.dtype))


def _col_sums(a):
    """Sums over the second-to-last axis of a C-contiguous array, as `_row_sums` does over the last."""
    k = a.shape[-2]
    return a[..., 0, :].copy() if k == 1 else np.matmul(_ones(k, a.dtype), a)


def _sum_keep(a, axes):
    """``np.add.reduce(a, axis=axes, keepdims=True)`` of a rank-4 array, as a fresh array.

    Every keepdims sum in this module goes through here, and the norm nodes
    call the same two helpers directly, so an op and the composite of ops it
    fuses sum alike.  On a non-empty C-contiguous `a`, the four patterns the
    model uses, (2, 3), (1,), (0, 2, 3) and (0,), are `_row_sums` and
    `_col_sums` of reshapes; every other case is ``np.add.reduce``.
    """
    if not a.size or not a.flags.c_contiguous or axes not in ((2, 3), (1,), (0, 2, 3), (0,)):
        return np.add.reduce(a, axis=axes, keepdims=True)
    n, c, h, w = a.shape
    keep = tuple(1 if i in axes else d for i, d in enumerate(a.shape))
    if axes == (1,):
        return _col_sums(a.reshape(n, c, h * w)).reshape(keep)
    if axes != (0,):  # (2, 3) or (0, 2, 3): sum each map first
        a = _row_sums(a.reshape(n * c, h * w))
        if axes == (2, 3):
            return a.reshape(keep)
    return _col_sums(a.reshape(n, -1)).reshape(keep)


# -- elementwise ops ---------------------------------------------------------


def _binary(a, b, fn, grad_a, grad_b):
    """Elementwise ``fn(a, b)`` of broadcastable operands, recorded as one tape node.

    A python scalar operand becomes a constant tensor of the other's dtype.
    ``grad_a(g, a, b, out)`` and ``grad_b`` give each operand's local
    gradient from the incoming gradient and the operand and output arrays;
    broadcast axes are summed away before it reaches the operand.
    """
    a = _as_tensor(a)
    b = _as_tensor(b, like=a)
    try:
        data = fn(a.data, b.data)
    except ValueError:
        _check_broadcast(a.shape, b.shape)  # names the axis numpy could not broadcast
        raise

    def bw(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(grad_a(g, a.data, b.data, data), a.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(grad_b(g, a.data, b.data, data), b.shape))

    return _node(data, (a, b), bw)


def add(a, b):
    return _binary(a, b, np.add, lambda g, x, y, z: g, lambda g, x, y, z: g)


def _unary(x, data, grad):
    """One-input node with output array `data`; ``grad(g, x, out)`` is the input gradient."""
    return _node(data, (x,), lambda g, acc: acc(x, grad(g, x.data, data)))


def square(x):
    return _unary(x, x.data * x.data, lambda g, a, z: 2.0 * a * g)


def sqrt(x):
    return _unary(x, np.sqrt(x.data), lambda g, a, z: g * (0.5 / z))


# -- fused elementwise ops: one node and one fresh array each, computed in the
# order of the composite they replace, so output and gradients equal it bitwise


def star_relu(x, s, b):
    """StarReLU ``s * relu(x)**2 + b``, in `x`'s dtype; `s` and `b` broadcast to `x`.

    The composite is ``add(mul(square(relu(x)), s), b)``.  The node keeps
    only its parents: the backward recomputes ``r = max(x, 0)`` and gives
    `x` ``2 r (g s)``, `s` the sum of ``g r^2`` and `b` the sum of `g`.
    NaN propagates; -0.0 counts as 0.
    """
    out = np.maximum(x.data, 0)
    out *= out
    out *= s.data
    out += b.data

    def bw(g, acc):
        r = np.maximum(x.data, 0)
        if x.requires_grad:
            acc(x, 2.0 * r * (g * s.data))
        if s.requires_grad:
            acc(s, _unbroadcast(g * (r * r), s.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(g, b.shape))

    return _node(out, (x, s, b), bw)


def residual(x, branch, scale=None, keep=None):
    """The residual sum ``branch * scale * keep + x``; a single ``branch + x`` without factors.

    `scale` is an optional tensor that broadcasts to `branch` (a per-channel
    residual scale), `keep` an optional constant array (a per-sample
    stochastic-depth mask), the only array the node keeps besides its
    parents.  The composite is ``add(mul(mul(branch, scale), keep), x)``.
    """
    if branch.shape != x.shape:
        raise ShapeError(f"residual: branch {branch.shape} and input {x.shape} differ")
    out = branch.data if scale is None else branch.data * scale.data
    if keep is not None:
        out = out * keep if scale is None else np.multiply(out, keep, out=out)
    out = out + x.data if out is branch.data else np.add(out, x.data, out=out)

    def bw(g, acc):
        acc(x, g)
        gk = g if keep is None else g * keep
        if branch.requires_grad:
            acc(branch, gk if scale is None else gk * scale.data)
        if scale is not None and scale.requires_grad:
            acc(scale, _unbroadcast(gk * branch.data, scale.shape))

    parents = (branch, x) if scale is None else (branch, scale, x)  # the composite's visiting order
    return _node(out, parents, bw)


def cross_entropy(logits, q):
    """Mean cross-entropy ``-sum(q * log_softmax(logits)) / n`` of (n, K, 1, 1) logits, one tape node.

    `q` is a constant (n, K, 1, 1) array of target rows.  The log-softmax
    shift is the detached row maximum, which leaves the gradient exact.  The
    composite is ``mul(tsum(mul(q, logp)), -1/n)`` with ``logp = sub(a,
    log(tsum(exp(a), (1,))))`` on the shifted logits ``a``.  The node keeps
    `q`, ``e = exp(a)`` and its row sums ``s``, and gives `logits` ``glp +
    (gs / s) e``, with ``glp = g (-1/n) q`` and ``gs`` the row sums of
    ``-glp``.
    """
    n = logits.shape[0]
    c = _constant(-1.0 / n, logits.dtype).data
    a = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(a)
    s = _sum_keep(e, (1,))
    logp = a - np.log(s)
    data = _sum_keep(q * logp, (0, 1, 2, 3)) * c

    def bw(g, acc):
        glp = np.broadcast_to(g * c, q.shape) * q
        gs = _sum_keep(-glp, (1,)) / s
        acc(logits, glp + np.broadcast_to(gs, e.shape) * e)

    return _node(data, (logits,), bw)


# -- reductions ---------------------------------------------------------------


def _norm_axes(axes):
    if axes is None:
        return (0, 1, 2, 3)
    for a in axes:
        if not -4 <= int(a) <= 3:
            raise ShapeError(f"reduction axis {a} is out of range [-4, 3] for a rank-4 tensor")
    axes = tuple(sorted(int(a) % 4 for a in axes))
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {axes}")
    return axes


def tsum(x, axes=None):
    """Sum over `axes` (all by default); result keeps rank 4."""
    axes = _norm_axes(axes)
    return _unary(x, _sum_keep(x.data, axes), lambda g, a, z: np.broadcast_to(g, a.shape))


def _count(shape, axes):
    count = 1
    for a in axes:
        count *= shape[a]
    return count


def mean(x, axes=None):
    """Arithmetic mean over `axes`; result keeps rank 4."""
    axes = _norm_axes(axes)
    count = _count(x.shape, axes)
    if count == 0:
        raise ShapeError(f"mean over empty extent (axes {axes} of shape {x.shape})")
    data = _sum_keep(x.data, axes)
    data /= count
    return _unary(x, data, lambda g, a, z: np.broadcast_to(g / count, a.shape))


def global_avg_pool(x):
    """Per-channel spatial mean: (n, c, h, w) -> (n, c, 1, 1)."""
    return mean(x, (2, 3))


# -- channel split / concat ----------------------------------------------------


@functools.lru_cache(maxsize=256)
def _split_plan(channels, sizes):
    """The ``(:, lo:hi)`` index of each part of a ``channel_split`` of `channels` by `sizes`, once checked.

    Cached, so each signature is checked once; a bad one raises on every call.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 0 for s in sizes):
        raise ShapeError(f"negative split size in {sizes}")
    if sum(sizes) != channels:
        raise ShapeError(f"split sizes {sizes} sum to {sum(sizes)}, input has {channels} channels")
    bounds, hi = [], 0
    for s in sizes:
        lo, hi = hi, hi + s
        bounds.append((slice(None), slice(lo, hi)))
    return tuple(bounds)


def channel_split(x, sizes):
    """Slice `x` along the channel axis into len(sizes) tensors.

    Zero sizes yield empty (n, 0, h, w) tensors that downstream code skips;
    concatenating the outputs in order reproduces `x` bitwise.
    """
    parts = []
    for index in _split_plan(x.shape[1], tuple(sizes)):

        def bw(g, acc, index=index):
            full = np.zeros_like(x.data)
            full[index] = g
            acc(x, full)

        parts.append(_node(x.data[index], (x,), bw))
    return parts


@functools.lru_cache(maxsize=256)
def _concat_plan(shapes):
    """The ``(:, lo:hi)`` index of each part of a ``channel_concat`` of parts of `shapes`, once checked.

    Cached like `_split_plan`.
    """
    if not shapes:
        raise ShapeError("channel_concat needs at least one part")
    ref = shapes[0]
    for i, shape in enumerate(shapes[1:], start=1):
        for axis in (0, 2, 3):
            if shape[axis] != ref[axis]:
                raise ShapeError(f"channel_concat part {i} disagrees on axis {axis}: {shape} vs {ref}")
    return _split_plan(sum(s[1] for s in shapes), tuple(s[1] for s in shapes))


def channel_concat(parts):
    """Stack tensors along the channel axis, in argument order."""
    parts = tuple(parts)
    bounds = _concat_plan(tuple(p.shape for p in parts))
    data = np.concatenate([p.data for p in parts], axis=1)

    def bw(g, acc):
        for p, index in zip(parts, bounds):
            if p.requires_grad:
                acc(p, g[index])

    return _node(data, parts, bw)


# -- convolution -----------------------------------------------------------------


def _pair(v):
    if isinstance(v, (tuple, list)):
        return int(v[0]), int(v[1])
    return int(v), int(v)


@functools.lru_cache(maxsize=256)
def _conv_plan(x_shape, w_shape, b_shape, stride, pad, groups):
    """The kernel a ``conv2d`` call of these shapes runs, once the call is checked.

    `stride` and `pad` are ``conv2d``'s arguments as given, an int or a pair
    each, so a hit pairs nothing.  Returns the kernel's name in this module
    and its arguments after the input and kernel arrays.  Cached, so each
    call signature is checked and routed once; a bad one raises
    ``ShapeError`` on every call, as exceptions are not cached.
    """
    (sh, sw), (ph, pw) = _pair(stride), _pair(pad)
    n, cin, h, wd = x_shape
    cout, cin_g, kh, kw = w_shape
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
    if b_shape is not None and b_shape != (1, cout, 1, 1):
        raise ShapeError(f"conv2d: bias must be (1, {cout}, 1, 1), got {b_shape}")

    unit_stride = sh == sw == 1
    if unit_stride and groups == 1 and kh == kw == 1 and ph == pw == 0:
        return "_pointwise", ()
    if unit_stride and groups == cin == cout and (hout, wout) == (h, wd):
        if h * wd <= max(n, _UNROLL_MAX_HW):
            return "_depthwise_unrolled", (ph, pw)
        return ("_depthwise_taps" if cin >= _TAPS_MIN_C else "_depthwise_banded"), (ph, pw)
    if groups == 1:
        return "_general", ((sh, sw), (ph, pw), (hout, wout))
    raise ShapeError(
        f"conv2d: groups={groups} with c_in={cin}, c_out={cout}, stride ({sh}, {sw}) and output "
        f"({hout}, {wout}) from ({h}, {wd}) is not supported; conv2d runs dense calls (groups=1) "
        "and stride-1 depthwise calls that keep the map size (groups=c_in=c_out)"
    )


def conv2d(x, w, b=None, stride=1, pad=0, groups=1):
    """Cross-correlation of `x` with kernel `w` (no kernel flip).

    `w` has shape (c_out, c_in/groups, kh, kw); `b`, when given, is a
    per-channel (1, c_out, 1, 1) tensor.  Output spatial dims follow the
    floor convention: (h + 2*pad - kh) // stride + 1.

    The kernel is chosen from the call's shapes, once per signature (the
    cached ``_conv_plan``); each case has one
    implementation and the output is always a fresh C-contiguous array:

    - ``_pointwise`` (1x1, stride 1, pad 0, groups == 1): one matmul over
      (n, c, h*w); on 1x1 maps one (n, c_in) @ (c_in, c_out)
      product, and each gradient one more;
    - same-size stride-1 depthwise (groups == c_in == c_out), h*w <= max(n,
      16): ``_depthwise_unrolled``, one (h*w, h*w) map matrix per channel and
      one batched matmul per pass.  The matrix is then no bigger than the
      channel's batch data, or at most 16 x 16, so building it pays back
      within the call (measured: at n <= 4 it wins up to 4x4 maps and loses
      from 6x6);
    - the same with larger maps and fewer than 160 channels:
      ``_depthwise_banded``, each kernel row lowered to a band matrix along
      the width.  Output tiles of t = min(8, w) columns read windows of
      t + kw - 1 padded columns over every kernel row, copied into a column
      matrix and multiplied by a (rows * (t + kw - 1), t) band per channel:
      one batched matmul per block of channels, the blocks equal and as few
      as keep each column matrix within 2**21 values (8 MB in float32), all
      writing into one output; k x 1 filters run on a transposed view;
    - the same with 160 channels or more: ``_depthwise_taps``, `x` copied
      once into a zero-padded channels-last (n, h + kh - 1, w + kw - 1, c)
      buffer and one ``einsum`` over its (n, h, w, kh, kw, c) window view,
      so every operand runs along the contiguous channels; each gradient is
      one more einsum (the x-gradient with the kernel flipped).  Per call it
      beats the banded kernel's per-channel products by up to 3x at xT's
      stage-3/4 shapes; it loses to them on 56 x 56 maps and with few
      channels, whose per-channel products are long enough.
      On an h-row map with pad p, kernel row u reaches data only for u in
      [max(0, p-h+1), min(kh, p+h)), likewise for columns; all three
      depthwise kernels skip the other taps, and their weight gradient is
      exactly zero;
    - any other dense call (groups == 1: stem, downsample): ``_general``,
      im2col and one matmul.  When n > w_out the batch axis is the
      innermost of the padded input, the columns and the col2im buffer, so
      their copies move runs of n elements, not of w_out; otherwise it is
      the outermost.  At n = 1 the two orders are the same arrays.

    Any other call (1 < groups < c_in, or a depthwise call that is strided,
    changes the map size or has c_out != c_in) raises ``ShapeError``.
    ``analysis.cost_report`` counts nominal MACs whatever a kernel skips or adds.
    """
    b_shape = None if b is None else b.shape
    try:
        kernel, args = _conv_plan(x.shape, w.shape, b_shape, stride, pad, groups)
    except TypeError:  # a list stride or pad cannot key the cache
        kernel, args = _conv_plan(x.shape, w.shape, b_shape, _pair(stride), _pair(pad), groups)
    out, grads = globals()[kernel](x.data, w.data, *args)  # looked up per call, so a patched kernel runs
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
    w2 = w.reshape(cout, cin)
    if h * wd == 1:  # one (n, c_in) @ (c_in, c_out) product, not n matrix-vector ones
        x2 = x.reshape(n, cin)

        def grads(g, need_x, need_w):
            g2 = g.reshape(n, cout)
            gx = np.matmul(g2, w2).reshape(x.shape) if need_x else None
            # np.dot: at n = 1 np.matmul runs the (c_out, 1) view g2.T through a non-BLAS loop
            gw = np.dot(g2.T, x2).reshape(w.shape) if need_w else None
            return gx, gw

        return np.matmul(x2, w2.T).reshape(n, cout, 1, 1), grads
    x3 = x.reshape(n, cin, h * wd)
    out = np.matmul(w2, x3).reshape(n, cout, h, wd)

    def grads(g, need_x, need_w):
        g3 = g.reshape(n, cout, h * wd)
        gx = np.matmul(w2.T, g3).reshape(x.shape) if need_x else None
        gw = np.tensordot(g3, x3, axes=([0, 2], [0, 2])).reshape(w.shape) if need_w else None
        return gx, gw

    return out, grads


_BAND_TILE = 8
_BAND_BLOCK = 1 << 21  # column-matrix values per channel block of the banded kernel (8 MB in float32)
_UNROLL_MAX_HW = 16  # below this many pixels the unrolled depthwise kernel wins at any batch size
# from this many channels the channels-last depthwise kernel beats the banded one on maps up to 28 x 28
# (not at 56 x 56); at 128 it gains only ~10% on xT's 28 x 28 filter, whose banded column matrix
# is what keeps glibc's mmap threshold above the heap that a standalone xT forward frees
_TAPS_MIN_C = 160


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


def _live_taps(w, h, wd, ph, pw):
    """The taps of a same-size depthwise (c, 1, kh, kw) kernel `w` that can reach an h x wd map's data.

    Kernel row u reaches data only for u in [max(0, ph-h+1), min(kh, ph+h)),
    likewise for columns; the other taps only ever read padding.  The crop is
    symmetric, so the cropped kernel is again a same-size conv.  Returns the
    (c, kr, kc) live kernel, the (rows, columns) slices of `w` it keeps and
    its pads.
    """
    c, _, kh, kw = w.shape
    r0, c0 = max(0, ph - h + 1), max(0, pw - wd + 1)
    live = (slice(r0, kh - r0), slice(c0, kw - c0))
    return w.reshape(c, kh, kw)[:, live[0], live[1]], live, (ph - r0, pw - c0)


def _depthwise_banded(x, w, ph, pw):
    n, c = x.shape[:2]
    w_shape = w.shape
    transposed = w.shape[2] > w.shape[3]  # k x 1: band along the rows instead
    if transposed:
        x, w, ph, pw = x.transpose(0, 1, 3, 2), w.transpose(0, 1, 3, 2), pw, ph
    hh, ww = x.shape[2:]
    wc, live, (p, q) = _live_taps(w, hh, ww, ph, pw)
    kr, kc = wc.shape[1:]
    t = min(_BAND_TILE, ww)
    nt = -(-ww // t)
    span = t + kc - 1
    table = _band_table(kr, kc, t)
    dtype = np.result_type(x, w)
    # channels go through in equal blocks whose column matrices hold at most _BAND_BLOCK values
    nb = -(-c // max(1, _BAND_BLOCK // (n * hh * nt * kr * span)))
    step = -(-c // nb)
    blocks = [slice(i, i + step) for i in range(0, c, step)]

    def columns(a):
        """(cb, n*hh*nt, kr*span) windows of the (n, cb, hh, ww) `a`, zero-padded, one row per output tile."""
        cb = a.shape[1]
        buf = np.zeros((cb, n, hh + kr - 1, nt * t + kc - 1), dtype)
        buf[:, :, p : p + hh, q : q + ww] = a.transpose(1, 0, 2, 3)
        sc, sn, sr, se = buf.strides
        windows = np.ndarray((cb, n, hh, nt, kr, span), dtype, buffer=buf, strides=(sc, sn, sr, se * t, sr, se))
        return windows.reshape(cb, n * hh * nt, kr * span)

    def apply(a, kernel):
        """`a` cross-correlated with the (c, kr, kc) `kernel`, as (n, c, h, wd)."""
        wz = np.zeros((c, kr * kc + 1), kernel.dtype)
        wz[:, :-1] = kernel.reshape(c, -1)
        o = np.empty((c, n * hh * nt, t), dtype)
        for blk in blocks:
            np.matmul(columns(a[:, blk]), wz[blk][:, table], out=o[blk])
        o = o.reshape(c, n, hh, nt * t)[..., :ww]
        return np.ascontiguousarray(o.transpose(1, 0, 3, 2) if transposed else o.transpose(1, 0, 2, 3))

    def grads(g, need_x, need_w):
        if transposed:
            g = g.transpose(0, 1, 3, 2)
        gx = gw = None
        if need_x:
            gx = apply(g, wc[:, ::-1, ::-1])
        if need_w:
            gw = np.zeros(w_shape, g.dtype)
            cropped = (gw.transpose(0, 1, 3, 2) if transposed else gw)[:, 0, live[0], live[1]]
            for blk in blocks:
                gb = g[:, blk].transpose(1, 0, 2, 3)
                gp = np.zeros(gb.shape[:3] + (nt * t,), g.dtype)
                gp[..., :ww] = gb
                gband = np.matmul(columns(x[:, blk]).transpose(0, 2, 1), gp.reshape(len(gp), -1, t))
                # tap (l, v) is the sum over o of band entry (l * span + o + v, o)
                s0, e = gband.strides[0], gband.itemsize
                diag = np.ndarray(
                    (len(gp), kr, kc, t), gband.dtype, buffer=gband, strides=(s0, span * t * e, t * e, (t + 1) * e)
                )
                cropped[blk] = diag.sum(axis=3)
        return gx, gw

    return apply(x, wc), grads


def _depthwise_taps(x, w, ph, pw):
    n, c, h, wd = x.shape
    wc, live, (p, q) = _live_taps(w, h, wd, ph, pw)
    kr, kc = wc.shape[1:]
    dtype = np.result_type(x, w)

    def windows(a):
        """(n, h, wd, kr, kc, c) windows of the (n, c, h, wd) `a`, zero-padded, channels innermost."""
        buf = np.zeros((n, h + kr - 1, wd + kc - 1, c), dtype)
        buf[:, p : p + h, q : q + wd] = a.transpose(0, 2, 3, 1)
        sn, sy, sx, sc = buf.strides
        return np.ndarray((n, h, wd, kr, kc, c), dtype, buffer=buf, strides=(sn, sy, sx, sy, sx, sc))

    def apply(a, kernel):
        """`a` cross-correlated with the (c, kr, kc) `kernel`, as (n, c, h, wd)."""
        # every operand runs along the contiguous channels; an NCHW out= view makes the einsum 4x slower
        o = np.einsum("nyxuvc,uvc->nyxc", windows(a), np.ascontiguousarray(kernel.transpose(1, 2, 0)))
        return np.ascontiguousarray(o.transpose(0, 3, 1, 2))

    def grads(g, need_x, need_w):
        gx = gw = None
        if need_x:
            gx = apply(g, wc[:, ::-1, ::-1])
        if need_w:
            gw = np.zeros(w.shape, g.dtype)
            gl = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
            # an out= view here, as in the forward, makes the einsum 5-15x slower
            gw[:, 0, live[0], live[1]] = np.einsum("nyxuvc,nyxc->cuv", windows(x), gl)
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


def _general(x, w, stride, pad, out_hw):
    sh, sw = stride
    ph, pw = pad
    hout, wout = out_hw
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hp, wp = h + 2 * ph, wd + 2 * pw
    # The batch axis goes innermost when it is the longer run (`last`): the padded
    # buffers are then (c_in, hp, wp, n) and a column runs over (h_out, w_out, n), so
    # the column copy and the x-gradient scatter move runs of n elements, not of
    # w_out.  The product, its gradient and the column gradient are (c, *tail);
    # `to_nchw` turns those into (n, c, h_out, w_out), `from_nchw` back.
    last = n > wout
    if last:
        tail, to_nchw, from_nchw = (hout, wout, n), (3, 0, 1, 2), (1, 2, 3, 0)
    else:
        tail, to_nchw, from_nchw = (n, hout, wout), (1, 0, 2, 3), (1, 0, 2, 3)

    def padded():
        """A zeroed buffer and its (n, c_in, hp, wp) view."""
        buf = np.zeros((cin, hp, wp, n) if last else (n, cin, hp, wp), x.dtype)
        return buf, (buf.transpose(3, 0, 1, 2) if last else buf)

    def columns():
        """The im2col matrix of the zero-padded `x`; rebuilt in the backward, so only x is kept."""
        buf, xp = padded()
        xp[:, :, ph : ph + h, pw : pw + wd] = x
        sn, sc, srow, scol = xp.strides
        steps = (srow * sh, scol * sw, sn) if last else (sn, srow * sh, scol * sw)
        patches = np.ndarray(  # the window view on the buffer, a tenth of the cost of a stride-tricks view
            (cin, kh, kw, *tail), x.dtype, buffer=buf, strides=(sc, srow, scol, *steps)
        )
        return patches.reshape(cin * kh * kw, -1)  # copies the window view

    w2 = w.reshape(cout, cin * kh * kw)
    out = np.ascontiguousarray(np.matmul(w2, columns()).reshape(cout, *tail).transpose(to_nchw))

    def grads(g, need_x, need_w):
        g2 = g.transpose(from_nchw).reshape(cout, -1)
        gx = gw = None
        if need_w:  # (K, P) @ (P, c_out), returned transposed: the faster BLAS form of g2 @ cols.T
            gw = np.matmul(columns(), g2.T).T.reshape(w.shape)
        if need_x:
            gcols = np.matmul(w2.T, g2).reshape(cin, kh, kw, *tail)
            gcols = gcols.transpose(1, 2, *((0, 3, 4, 5)[i] for i in to_nchw))  # (kh, kw, n, c_in, h_out, w_out)
            _, gxp = padded()
            for u in range(kh):
                for v in range(kw):
                    gxp[:, :, u : u + hout * sh : sh, v : v + wout * sw : sw] += gcols[u, v]
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
