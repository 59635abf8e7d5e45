"""AdamW with decoupled weight decay and the warmup-cosine schedule.

Decay is applied multiplicatively before the moment update, and only to
parameters flagged for it (kernel/dense weights); norm weights, view
weights, residual scales, activation scalars, and biases are exempt.
"""

from __future__ import annotations

import math

import numpy as np


class NumericsError(ArithmeticError):
    """Non-finite gradient or loss; training aborts with context."""


class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

    Per step and parameter p with gradient g:

        p <- p * (1 - lr * wd)            (only if p's decay flag is set)
        m <- b1 * m + (1 - b1) * g
        v <- b2 * v + (1 - b2) * g^2
        p <- p - lr * mhat / (sqrt(vhat) + eps)
    """

    def __init__(self, named_params, base_lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.05):
        self.named_params = list(named_params)
        self.base_lr = base_lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self, lr=None):
        lr = self.base_lr if lr is None else lr
        self.step_count += 1
        bc1 = 1.0 - self.beta1**self.step_count
        bc2 = 1.0 - self.beta2**self.step_count
        for name, p in self.named_params:
            g = p.tensor.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.isfinite(g).all():
                raise NumericsError(f"non-finite gradient for parameter {name!r}")
            if p.decay and self.weight_decay:
                p.tensor.data = p.tensor.data * np.float32(1.0 - lr * self.weight_decay)
            m = self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.tensor.data = (p.tensor.data - lr * update).astype(p.data.dtype, copy=False)


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
