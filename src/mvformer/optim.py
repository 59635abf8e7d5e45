"""AdamW with decoupled weight decay and the warmup-cosine schedule.

Decay is applied multiplicatively before the moment update, and only to
parameters flagged for it (kernel/dense weights); norm weights, view
weights, residual scales, activation scalars, and biases are exempt.

The parameters and the two moments live in three flat arrays, one span per
parameter, with the decayed parameters laid out first; each parameter's
``data``, ``m[name]`` and ``v[name]`` are reshaped views into them.  A step
gathers the gradients into a flat array, checks every gradient and
parameter before it changes anything, and runs the update in place as a
fixed handful of whole-array passes.
"""

from __future__ import annotations

import math

import numpy as np


class NumericsError(ArithmeticError):
    """Non-finite gradient or loss; training aborts with context."""


class OptimizerStoreError(TypeError):
    """A parameter no longer the view the optimizer's store handed out, or a gradient that does not fit it."""


class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

    Per step and parameter p with gradient g (a missing gradient counts as zero):

        p <- p * (1 - lr * wd)            (only if p's decay flag is set)
        m <- b1 * m + (1 - b1) * g
        v <- b2 * v + (1 - b2) * g^2
        p <- p - lr * mhat / (sqrt(vhat) + eps)

    with the constants b1 = 0.9, b2 = 0.999 and eps = 1e-8.  Construction
    rebinds each parameter's ``data`` to a view of one flat store, and every
    step updates the store in place, so a parameter rebound afterwards (by
    ``Module.cast_``, say) is rejected.  Decay flags are read once, at
    construction; every parameter must share one dtype, which is the store's.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params, weight_decay=0.05):
        self.named_params = list(named_params)
        self.weight_decay = weight_decay
        self.step_count = 0
        if not self.named_params:
            raise ValueError("AdamW needs at least one parameter")
        dtypes = sorted({str(p.data.dtype) for _, p in self.named_params})
        if len(dtypes) > 1:
            raise OptimizerStoreError(f"parameters mix dtypes {dtypes}; cast the model first")
        self.dtype = self.named_params[0][1].data.dtype
        # decayed first (a stable sort), so decoupled decay is one prefix multiply
        self._layout = sorted(self.named_params, key=lambda item: not item[1].decay)
        self._p = np.concatenate([p.data for _, p in self._layout], axis=None)
        self._m, self._v = np.zeros_like(self._p), np.zeros_like(self._p)
        self._g, self._scratch = np.empty_like(self._p), np.empty_like(self._p)
        self._zeros = np.zeros(max(p.data.size for _, p in self._layout), self.dtype)
        self._decayed = sum(p.data.size for _, p in self._layout if p.decay)
        self._views, self.m, self.v = [], {}, {}
        end = 0
        for name, p in self._layout:
            lo, end, shape = end, end + p.data.size, p.data.shape
            p.tensor.data = self._p[lo:end].reshape(shape)
            self._views.append(p.data)
            self.m[name] = self._m[lo:end].reshape(shape)
            self.v[name] = self._v[lo:end].reshape(shape)

    def step(self, lr):
        grads = [
            self._zeros[: view.size] if p.grad is None else p.grad
            for (_, p), view in zip(self._layout, self._views)
        ]
        g = self._gather(grads)
        # a finite sum proves every entry finite; only a non-finite one (NaN, inf, or
        # an overflow of finite entries) pays for the elementwise check
        with np.errstate(over="ignore", invalid="ignore"):
            total = g.sum()
        if not np.isfinite(total) and not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for parameter {self._first_nonfinite()!r}")
        self.check_params()
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        p, m, v, s = self._p, self._m, self._v, self._scratch
        # the formula's expressions in a per-parameter loop's order, so results are bitwise equal
        if self.weight_decay:
            p[: self._decayed] *= np.float32(1.0 - lr * self.weight_decay)
        np.multiply(m, self.beta1, out=m)
        np.multiply(g, 1.0 - self.beta1, out=s)
        np.add(m, s, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(g, g, out=s)
        np.multiply(s, 1.0 - self.beta2, out=s)
        np.add(v, s, out=v)
        np.divide(v, bc2, out=s)
        np.sqrt(s, out=s)
        np.add(s, self.eps, out=s)
        np.divide(m, bc1, out=g)
        np.divide(g, s, out=g)
        np.multiply(g, lr, out=g)
        np.subtract(p, g, out=p)

    def check_params(self):
        """Raise OptimizerStoreError unless every parameter's ``data`` is still its view of the store."""
        for (name, p), view in zip(self._layout, self._views):
            if p.data is not view:
                raise OptimizerStoreError(
                    f"parameter {name!r} is {p.data.dtype} {p.data.shape}, rebound off the optimizer store"
                )

    def _gather(self, grads):
        try:
            return np.concatenate(grads, axis=None, out=self._g, casting="no")
        except (TypeError, ValueError):
            for (name, _), a, view in zip(self._layout, grads, self._views):
                if a.dtype != self.dtype or a.shape != view.shape:
                    raise OptimizerStoreError(
                        f"gradient of {name!r} is {a.dtype} {a.shape}; "
                        f"the optimizer store holds {self.dtype} {view.shape}"
                    ) from None
            raise

    def _first_nonfinite(self):
        return next(
            name for name, p in self.named_params
            if p.grad is not None and not np.isfinite(p.grad).all()
        )


def cosine_lr(step, total_steps, warmup_steps, base_lr):
    """Linear 0 -> base_lr over warmup, then half-cosine decay to ~0."""
    if warmup_steps >= total_steps:
        raise ValueError(f"warmup ({warmup_steps}) must be shorter than the run ({total_steps})")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
