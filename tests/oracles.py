"""Independent reference implementations used as test oracles.

These stay deliberately naive (direct loops, two-pass sums) and never call
the library's fast paths.
"""

import numpy as np

from mvformer import norm
from mvformer.optim import NumericsError
from mvformer.tensor import ShapeError, Tensor, _binary, _node, _unary, add, mean, sqrt, square, tsum

# Elementwise tape ops that the library's fused nodes replaced; the composites below are built from them.


def sub(a, b):
    return _binary(a, b, np.subtract, lambda g, x, y, z: g, lambda g, x, y, z: -g)


def mul(a, b):
    return _binary(a, b, np.multiply, lambda g, x, y, z: g * y, lambda g, x, y, z: g * x)


def div(a, b):
    return _binary(a, b, np.divide, lambda g, x, y, z: g / y, lambda g, x, y, z: -g * z / y)


def exp(x):
    return _unary(x, np.exp(x.data), lambda g, a, z: g * z)


def log(x):
    return _unary(x, np.log(x.data), lambda g, a, z: g / a)


def _windows(x_shape, w_shape, stride, pad, groups):
    """Each output channel and position of a cross-correlation, with the index of its input window
    in the zero-padded input: ``(oc, y, xo, (channels, rows, columns))``."""
    _, _, h, wd = x_shape
    cout, cin_g, kh, kw = w_shape
    sh, sw = stride
    ph, pw = pad
    cout_g = cout // groups
    for oc in range(cout):
        g = oc // cout_g
        for y in range((h + 2 * ph - kh) // sh + 1):
            for xo in range((wd + 2 * pw - kw) // sw + 1):
                window = slice(g * cin_g, (g + 1) * cin_g), slice(y * sh, y * sh + kh), slice(xo * sw, xo * sw + kw)
                yield oc, y, xo, window


def _padded(x, pad):
    ph, pw = pad
    n, c, h, wd = x.shape
    xp = np.zeros((n, c, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    return xp


def conv2d_oracle(x, w, b=None, stride=(1, 1), pad=(0, 0), groups=1):
    """Direct cross-correlation: every output is its input window times the kernel, summed.

    Loops over output channels and positions; the batch is one vector.
    """
    n = x.shape[0]
    cout, _, kh, kw = w.shape
    hout = (x.shape[2] + 2 * pad[0] - kh) // stride[0] + 1
    wout = (x.shape[3] + 2 * pad[1] - kw) // stride[1] + 1
    xp = _padded(x, pad)
    out = np.zeros((n, cout, hout, wout), dtype=np.float64)
    for oc, y, xo, window in _windows(x.shape, w.shape, stride, pad, groups):
        out[:, oc, y, xo] = (xp[(slice(None), *window)] * w[oc]).sum(axis=(1, 2, 3))
    if b is not None:
        out += np.reshape(b, (1, cout, 1, 1))
    return out


def conv2d_grads_oracle(x, w, gy, stride=(1, 1), pad=(0, 0), groups=1):
    """Input and weight gradients of `conv2d_oracle` for the output gradient `gy`.

    The same loops: each output's gradient, times the kernel, adds into its
    input window's gradient, and times the window, summed over the batch,
    into the kernel's.
    """
    ph, pw = pad
    _, _, h, wd = x.shape
    xp = _padded(x, pad)
    gxp = np.zeros_like(xp)
    gw = np.zeros(w.shape, dtype=np.float64)
    for oc, y, xo, window in _windows(x.shape, w.shape, stride, pad, groups):
        g = gy[:, oc, y, xo].reshape(-1, 1, 1, 1)
        gxp[(slice(None), *window)] += g * w[oc]
        gw[oc] += (g * xp[(slice(None), *window)]).sum(axis=0)
    return gxp[:, :, ph : ph + h, pw : pw + wd], gw


def moments_oracle(x, axes):
    """Straight two-pass summation: mean first, then squared deviations."""
    count = 1
    for a in axes:
        count *= x.shape[a]
    mu = x.sum(axis=axes, keepdims=True) / count
    var = ((x - mu) ** 2).sum(axis=axes, keepdims=True) / count
    return mu, var


def moments(x, axes):
    """Mean and population variance over `axes` as tensors, from plain tape ops.

    The unfused composite of one view of ``norm.variance``.
    Variance divides by the element count (no Bessel correction).
    """
    if not axes:
        raise ShapeError("moments needs at least one reduction axis")
    mu = mean(x, axes)
    return mu, mean(square(sub(x, mu)), axes)


# the reduction axes of each norm view kind, and the kind of each view's axes
VIEW_AXES = {"bn": (0, 2, 3), "ln": (1,), "in": (2, 3)}
VIEW_KIND = {axes: kind for kind, axes in VIEW_AXES.items()}


def packed_layout(kinds, shape):
    """The ``slices`` of ``norm._check``'s plan for views `kinds` of `shape`, worked out apart.

    Each view is as long as the elements its reduction keeps.  (A test calls
    ``norm.variance`` on shapes the layers reject with ``norm._Plan``.)
    """
    at, start = {}, 0
    for kind in kinds:
        size = int(np.prod([d for i, d in enumerate(shape) if i not in VIEW_AXES[kind]]))
        at[kind] = slice(start, start + size)
        start += size
    return at


def view_stats(m, kind, shape):
    """View `kind`'s ``(mean, variance)`` from ``norm.variance``'s `Moments`, as keepdims arrays.

    `Moments` holds them flat, keyed by kind; `shape` is the input's.
    """
    keep = tuple(1 if i in VIEW_AXES[kind] else d for i, d in enumerate(shape))
    return tuple(a.reshape(keep) for a in m.stats[kind])


def identity_affine(x):
    """``(gamma, beta)`` of ones and zeros for `x`'s channels: the affine ``norm.normalize`` requires."""
    shape = (1, x.shape[1], 1, 1)
    return Tensor(np.ones(shape, x.dtype)), Tensor(np.zeros(shape, x.dtype))


def relu(x):
    """max(x, 0) as one tape node; NaN propagates, -0.0 maps to +0.0."""
    data = np.maximum(x.data, 0)
    return _node(data, (x,), lambda g, acc: acc(x, g * (data > 0)))


def star_relu_oracle(x, s, b):
    """StarReLU ``s * relu(x)**2 + b`` from plain tape ops: the unfused form of ``tensor.star_relu``."""
    return add(mul(square(relu(x)), s), b)


def residual_oracle(x, branch, scale=None, keep=None):
    """``branch * scale * keep + x`` from plain tape ops: the unfused form of ``tensor.residual``."""
    if scale is not None:
        branch = mul(branch, scale)
    if keep is not None:
        branch = mul(branch, Tensor(keep))
    return add(branch, x)


def ce_oracle(logits, q):
    """Mean cross-entropy of `logits` against target rows `q` from plain tape ops: the unfused form
    of ``tensor.cross_entropy``, with the detached row maximum as the log-softmax shift."""
    n = logits.shape[0]
    shifted = sub(logits, Tensor(logits.data.max(axis=1, keepdims=True)))
    logp = sub(shifted, log(tsum(exp(shifted), (1,))))
    return mul(tsum(mul(Tensor(q), logp)), -1.0 / n)


def apply_affine(x, gamma, beta):
    """Per-channel ``add(mul(x, gamma), beta)``: the unfused affine of the norm layers."""
    if gamma.shape[1] != x.shape[1] or beta.shape[1] != x.shape[1]:
        raise ValueError(
            f"affine length mismatch: gamma {gamma.shape[1]}, beta {beta.shape[1]}, "
            f"input channels {x.shape[1]}"
        )
    return add(mul(x, gamma), beta)


def mvn_oracle(layer, x, training):
    """`MultiViewNorm.forward` as a composite of plain tape ops, one node per op.

    Each view is ``div(sub(x, mu), sqrt(add(var, eps)))`` with `moments`
    statistics (batch norm at inference uses the running values), the views
    are weighted by `mul` and summed by `add` left to right, and
    `apply_affine` follows: the unfused form of the layer's `variance`,
    ``sqrt(add)`` and `normalize` nodes.  It reads the layer's parameters and buffers and
    updates nothing.  The instance view is unguarded, as in the layer.
    """
    c = x.shape[1]
    if training:
        mu, var = moments(x, (0, 2, 3))
    else:
        mu, var = Tensor(layer.run_mean.reshape(1, c, 1, 1)), Tensor(layer.run_var.reshape(1, c, 1, 1))
    mixed = mul(div(sub(x, mu), sqrt(add(var, norm.EPS))), layer.alpha_bn)
    for axes, alpha in (((1,), layer.alpha_ln), ((2, 3), layer.alpha_in)):
        mu, var = moments(x, axes)
        mixed = add(mixed, mul(div(sub(x, mu), sqrt(add(var, norm.EPS))), alpha))
    return apply_affine(mixed, layer.gamma, layer.beta)


def standardize_oracle(x, axes, eps):
    """(x - mean) / sqrt(var + eps) from the two-pass moments."""
    mu, var = moments_oracle(x, axes)
    return (x - mu) / np.sqrt(var + eps)


def adamw_oracle(opt, lr):
    """The reference for ``AdamW.step``: the same expressions, one parameter at a time.

    Reads an ``AdamW``'s hyperparameters and state and rebinds ``opt.m[name]``
    and ``opt.v[name]`` to fresh arrays, so an optimizer stepped by this
    function must not also be stepped by its own ``step``.
    """
    opt.step_count += 1
    bc1 = 1.0 - opt.beta1**opt.step_count
    bc2 = 1.0 - opt.beta2**opt.step_count
    for name, p in opt.named_params:
        g = p.tensor.grad
        if g is None:
            g = np.zeros_like(p.data)
        elif not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for parameter {name!r}")
        if p.decay and opt.weight_decay:
            p.tensor.data = p.tensor.data * np.float32(1.0 - lr * opt.weight_decay)
        m = opt.m[name] = opt.beta1 * opt.m[name] + (1.0 - opt.beta1) * g
        v = opt.v[name] = opt.beta2 * opt.v[name] + (1.0 - opt.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        p.tensor.data = (p.tensor.data - lr * update).astype(p.data.dtype, copy=False)


def trunc_normal_oracle(rng, shape, std=0.02):
    """Normal(0, std) resampled until within 2 std, re-testing the whole array each round."""
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2 * std
    return out.astype(np.float32)


def numeric_grad(f, x, h=1e-3):
    """Central differences of scalar f() with respect to 64-bit array x."""
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = f()
        flat_x[i] = orig - h
        down = f()
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * h)
    return g


def ulp_err(got, want):
    """Largest ``|got - want|`` in units of the float spacing at ``want``'s largest magnitude."""
    want = np.asarray(want)
    return float(np.abs(got - want).max() / np.spacing(np.abs(want).max()))


def max_rel_err(a, b, floor=1e-4):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return (np.abs(a - b) / denom).max()
