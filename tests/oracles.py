"""Independent reference implementations used as test oracles.

These stay deliberately naive (nested loops, two-pass sums) and never call
the library's fast paths.
"""

import numpy as np

from mvformer import norm
from mvformer.optim import NumericsError
from mvformer.tensor import ShapeError, Tensor, _node, add, div, mean, mul, sqrt, square, sub


def conv2d_oracle(x, w, b=None, stride=(1, 1), pad=(0, 0), groups=1):
    """Direct nested-loop cross-correlation."""
    n, cin, h, wd = x.shape
    cout, cin_g, kh, kw = w.shape
    sh, sw = stride
    ph, pw = pad
    hout = (h + 2 * ph - kh) // sh + 1
    wout = (wd + 2 * pw - kw) // sw + 1
    xp = np.zeros((n, cin, h + 2 * ph, wd + 2 * pw), dtype=np.float64)
    xp[:, :, ph : ph + h, pw : pw + wd] = x
    out = np.zeros((n, cout, hout, wout), dtype=np.float64)
    cout_g = cout // groups
    for img in range(n):
        for oc in range(cout):
            g = oc // cout_g
            for y in range(hout):
                for xo in range(wout):
                    acc = 0.0
                    for ic in range(cin_g):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (
                                    xp[img, g * cin_g + ic, y * sh + u, xo * sw + v]
                                    * w[oc, ic, u, v]
                                )
                    out[img, oc, y, xo] = acc
            if b is not None:
                out[img, oc] += b[oc]
    return out


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

    The unfused composite of one view of ``tensor.variance``.
    Variance divides by the element count (no Bessel correction).
    """
    if not axes:
        raise ShapeError("moments needs at least one reduction axis")
    mu = mean(x, axes)
    return mu, mean(square(sub(x, mu)), axes)


def view_stats(m, axes, shape):
    """One view's ``(mean, variance)`` from ``tensor.variance``'s `Moments`, as keepdims arrays.

    `Moments` holds them flat, per view kind; `shape` is the input's.
    """
    pair = {(2, 3): m.map, (0, 2, 3): m.channel, (1,): m.pixel}[axes]
    keep = tuple(1 if i in axes else d for i, d in enumerate(shape))
    return tuple(a.reshape(keep) for a in pair)


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
