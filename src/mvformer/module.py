"""Parameter registry: named learnable tensors with weight-decay flags.

Layers subclass ``Module`` and register parameters, buffers (non-learnable
running statistics), and child modules explicitly.  ``named_parameters``
walks the tree in registration order, so the flat registry is deterministic
for a deterministically constructed model; checkpoints and optimizers rely
on that ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor


@dataclass
class Param:
    """A learnable tensor plus its decoupled-weight-decay eligibility."""

    tensor: Tensor
    decay: bool = True

    @property
    def data(self):
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad


class Module:
    """Base for stateful layers; owns params, buffers, and children."""

    def __init__(self):
        self._params: dict[str, Param] = {}
        self._buffers: dict[str, np.ndarray] = {}
        self._children: dict[str, Module] = {}

    def param(self, name, array, decay=True):
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(array, dtype=np.float32), requires_grad=True)
        self._params[name] = Param(t, decay)
        return t

    def buffer(self, name, array):
        if name in self._buffers:
            raise ValueError(f"duplicate buffer name {name!r}")
        arr = np.asarray(array, dtype=np.float32)
        self._buffers[name] = arr
        return arr

    def child(self, name, module):
        if name in self._children:
            raise ValueError(f"duplicate child name {name!r}")
        self._children[name] = module
        return module

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, c in self._children.items():
            yield from c.named_parameters(prefix + cname + ".")

    def named_buffers(self, prefix=""):
        for name, arr in self._buffers.items():
            yield prefix + name, arr
        for cname, c in self._children.items():
            yield from c.named_buffers(prefix + cname + ".")

    def num_params(self):
        return sum(p.tensor.size for _, p in self.named_parameters())

    def zero_grad(self):
        for _, p in self.named_parameters():
            p.tensor.grad = None

    def cast_(self, dtype):
        """Rebind each parameter and buffer to a converted copy; an optimizer built earlier rejects its next step."""
        for _, p in self.named_parameters():
            p.tensor.data = p.tensor.data.astype(dtype)
            p.tensor.grad = None
        self._cast_buffers(dtype)
        return self

    def _cast_buffers(self, dtype):
        for name in self._buffers:
            self._buffers[name] = self._buffers[name].astype(dtype)
        for c in self._children.values():
            c._cast_buffers(dtype)
