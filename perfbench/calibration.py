"""Calibration kernels: how much slower than the reference speed the machine runs now.

Nothing here imports mvformer, so the set-up probe can load it before
mvformer's own import is timed.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# The CPU speed of a small shared machine swings by up to ~1.5x, between
# states that last from under a second to a minute.  A fixed kernel that does
# not touch mvformer is timed between operations, and each operation's time
# is divided by the slowness (kernel time over its reference time) of the
# kernel samples nearest to it: every time is reported at the reference
# speed (see workloads.Segment).  The kernels run with the garbage collector off,
# allocate nothing of size (their arrays and outputs are preallocated) and
# are timed after a short warm-up pass, so the heap, GC and cache state an
# mvformer operation leaves behind does not reach them; check_calibration.py
# measures that.  The slow state hurts kinds of code unequally, so each
# workload uses the kernel whose slowdown tracks its own.
#
# Kernel times that define the reference speed: about the kernels' times on a
# quiet 2-CPU x86-64 VM with numpy 2.4 and OpenBLAS on one thread.
MIXED_REFERENCE_S = 0.004
DISPATCH_REFERENCE_S = 0.004
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((128, 128)).astype(np.float32)
_PRODUCT = np.empty_like(_MATRIX)
_MAPS = _RNG.standard_normal((16, 8, 16, 16)).astype(np.float32)
_MAPS_OUT = np.empty_like(_MAPS)
_MAPS_MEAN = np.empty((1, 8, 1, 1), np.float32)
_TINY_MAPS = _RNG.standard_normal((2, 4, 6, 6))
_TINY_KERNELS = _RNG.standard_normal((8, 4, 3, 3))


def _slowness(kernel, reference_s):
    """Time `kernel` with the garbage collector off and its caches warm; its time over `reference_s`."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        kernel(warm_up=True)
        t0 = perf_counter()
        kernel()
        return (perf_counter() - t0) / reference_s
    finally:
        if was_enabled:
            gc.enable()


def _mixed_kernel(warm_up=False):
    # a warm-up pass loads the arrays and code into the caches an mvformer operation evicted
    for _ in range(1 if warm_up else 25):
        np.matmul(_MATRIX, _MATRIX, out=_PRODUCT)
    y = _MAPS
    for _ in range(1 if warm_up else 15):
        np.multiply(y, 0.5, out=_MAPS_OUT)
        np.add(_MAPS_OUT, 0.1, out=_MAPS_OUT)
        np.maximum(_MAPS_OUT, 0.0, out=_MAPS_OUT)
        np.mean(_MAPS_OUT, axis=(0, 2, 3), keepdims=True, out=_MAPS_MEAN)
        np.subtract(_MAPS_OUT, _MAPS_MEAN, out=_MAPS_OUT)
        y = _MAPS_OUT
    total = 0
    for i in range(1000 if warm_up else 15000):
        total += i * i % 7


def _dispatch_kernel(warm_up=False):
    for _ in range(1 if warm_up else 55):
        padded = np.pad(_TINY_MAPS, ((0, 0), (0, 0), (1, 1), (1, 1)))
        np.einsum("nchw,ochw->no", padded[:, :, :3, :3], _TINY_KERNELS, optimize=True)


def mixed_slowness():
    """Slowness of a matmul, small-array numpy and a Python loop (MIXED_REFERENCE_S at reference speed)."""
    return _slowness(_mixed_kernel, MIXED_REFERENCE_S)


def dispatch_slowness():
    """Slowness of float64 pad-and-einsum calls on tiny arrays (DISPATCH_REFERENCE_S at reference speed).

    Per-call numpy and Python overhead, like the gradient check's batch-2 graphs.
    """
    return _slowness(_dispatch_kernel, DISPATCH_REFERENCE_S)
