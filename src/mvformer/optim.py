"""AdamW with decoupled weight decay and the warmup-cosine schedule.

Decay is applied multiplicatively before the moment update, and only to
parameters flagged for it (kernel/dense weights); norm weights, view
weights, residual scales, activation scalars, and biases are exempt.

The moments live in two flat arrays, one span per parameter, with the
decayed parameters laid out first; ``m[name]`` and ``v[name]`` are reshaped
views into them.  A step gathers the gradients and the parameters into flat
arrays, checks every gradient before it changes anything, and runs the
update as a fixed handful of whole-array passes.
"""

from __future__ import annotations

import math

import numpy as np


class NumericsError(ArithmeticError):
    """Non-finite gradient or loss; training aborts with context."""


class OptimizerStoreError(TypeError):
    """A parameter or gradient whose dtype or shape no longer fits the optimizer's store."""


class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

    Per step and parameter p with gradient g (a missing gradient counts as zero):

        p <- p * (1 - lr * wd)            (only if p's decay flag is set)
        m <- b1 * m + (1 - b1) * g
        v <- b2 * v + (1 - b2) * g^2
        p <- p - lr * mhat / (sqrt(vhat) + eps)

    with the constants b1 = 0.9, b2 = 0.999 and eps = 1e-8.  Each parameter's
    ``data`` is rebound to a view of one fresh array per step.  Decay flags
    are read once, at construction; every parameter must share one dtype,
    which is the store's.
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
        span, end = {}, 0
        for name, p in self._layout:
            span[name] = (end, end + p.data.size, p.data.shape)
            end += p.data.size
        self._spans = list(span.values())
        self._decayed = sum(p.data.size for _, p in self._layout if p.decay)
        self._m = np.zeros(end, self.dtype)
        self._v = np.zeros_like(self._m)
        self._g = np.empty_like(self._m)
        self._scratch = np.empty_like(self._m)
        self._zeros = np.zeros(max(p.data.size for _, p in self._layout), self.dtype)
        self.m, self.v = {}, {}
        for name, _ in self.named_params:
            lo, hi, shape = span[name]
            self.m[name] = self._m[lo:hi].reshape(shape)
            self.v[name] = self._v[lo:hi].reshape(shape)

    def step(self, lr):
        grads = [
            self._zeros[: hi - lo] if p.grad is None else p.grad
            for (_, p), (lo, hi, _) in zip(self._layout, self._spans)
        ]
        g = self._gather(grads, self._g, "gradient of")
        if not np.isfinite(g).all():
            raise NumericsError(f"non-finite gradient for parameter {self._first_nonfinite()!r}")
        p = self.check_params()
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        m, v, s = self._m, self._v, self._scratch
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
        for (_, param), (lo, hi, shape) in zip(self._layout, self._spans):
            param.tensor.data = p[lo:hi].reshape(shape)

    def check_params(self):
        """The parameters gathered into one fresh flat array, in store order.

        Raises OptimizerStoreError if a parameter's dtype or shape no longer
        fits its span of the store.
        """
        return self._gather([p.data for _, p in self._layout], np.empty_like(self._m), "parameter")

    def _gather(self, arrays, out, what):
        try:
            return np.concatenate(arrays, axis=None, out=out, casting="no")
        except (TypeError, ValueError):
            for (name, _), a, (_, _, shape) in zip(self._layout, arrays, self._spans):
                if a.dtype != self.dtype or a.shape != shape:
                    raise OptimizerStoreError(
                        f"{what} {name!r} is {a.dtype} {a.shape}; "
                        f"the optimizer store holds {self.dtype} {shape}"
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
