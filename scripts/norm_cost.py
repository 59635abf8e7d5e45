"""Per-call cost of the normalization layers at the benchmark workloads' shapes.

For every distinct norm call of three workloads, prints the median time of
one call in microseconds:

- ``free``: the forward with the tape off (``grad_enabled(False)``);
- ``tape``: the forward with the tape on;
- ``tape+bwd``: the taped forward and the backward of its nodes, seeded
  with a fixed gradient of the output's shape.

Workloads: micro training (batch 64, 32x32 input, float32, training mode),
the gradient check (batch 2, float64, training mode; the (2, 8, 5, 5) call is
its MVN group) and xT inference (batch 1, 224x224 input, float32, eval
mode).  ``mvn`` rows are ``MultiViewNorm`` calls, ``ln`` the classifier's
pre-head ``PlainNorm``.  Each figure is the median over `--rounds` rounds of
as many calls as fill about 10 ms; every round visits every call in turn.

    PYTHONPATH=src python scripts/norm_cost.py [--rounds 15]
"""

import argparse
import time

import numpy as np

from mvformer.norm import MultiViewNorm, PlainNorm
from mvformer.tensor import Tensor, _node, backward, grad_enabled

# (workload, kind, shape, dtype, training)
CALLS = [
    *(("micro", "mvn", s, np.float32, True) for s in ((64, 8, 8, 8), (64, 16, 4, 4), (64, 32, 2, 2), (64, 64, 1, 1))),
    ("micro", "ln", (64, 64, 1, 1), np.float32, True),
    *(("gradcheck", "mvn", s, np.float64, True) for s in ((2, 8, 5, 5), (2, 8, 8, 8), (2, 16, 4, 4), (2, 32, 2, 2))),
    ("gradcheck", "mvn", (2, 64, 1, 1), np.float64, True),
    ("gradcheck", "ln", (2, 64, 1, 1), np.float64, True),
    *(("xT", "mvn", s, np.float32, False) for s in ((1, 64, 56, 56), (1, 128, 28, 28), (1, 320, 14, 14), (1, 512, 7, 7))),
    ("xT", "ln", (1, 512, 1, 1), np.float32, False),
]
BATCH_SECONDS = 0.01


def layer_for(kind, c, dtype, rng):
    layer = (MultiViewNorm(c) if kind == "mvn" else PlainNorm(c, kind)).cast_(dtype)
    for _, p in layer.named_parameters():
        p.tensor.data = rng.normal(1.0, 0.2, p.data.shape).astype(dtype)
    for _, buf in layer.named_buffers():
        buf[:] = rng.uniform(0.5, 1.5, buf.shape)
    return layer


def calls_of(kind, shape, dtype, training):
    """The three timed calls of one row: tape-free forward, taped forward, taped forward and backward."""
    rng = np.random.default_rng(0)
    layer = layer_for(kind, shape[1], dtype, rng)
    x = Tensor(rng.normal(0.5, 2.0, shape).astype(dtype), requires_grad=True)
    gy = rng.normal(size=shape).astype(dtype)

    def free():
        with grad_enabled(False):
            layer.forward(x, training)

    def tape():
        layer.forward(x, training)

    def tape_bwd():
        y = layer.forward(x, training)
        backward(_node(np.zeros((1, 1, 1, 1), dtype), (y,), lambda g, acc: acc(y, gy)))
        x.grad = None
        layer.zero_grad()

    return free, tape, tape_bwd


def batch_size(fn):
    """How many calls fill about ``BATCH_SECONDS``."""
    fn()
    t0 = time.perf_counter()
    fn()
    return max(1, int(BATCH_SECONDS / max(time.perf_counter() - t0, 1e-7)))


def median_us(calls, rounds):
    """Median per-call µs of each call; the rounds visit every call in turn, so a slow
    spell of a shared machine falls on all of them alike."""
    sizes = [batch_size(fn) for fn in calls]
    times = [[] for _ in calls]
    for _ in range(rounds):
        for fn, k, out in zip(calls, sizes, times):
            t0 = time.perf_counter()
            for _ in range(k):
                fn()
            out.append((time.perf_counter() - t0) / k)
    return [float(np.median(t)) * 1e6 for t in times]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    calls = [fn for workload, kind, shape, dtype, training in CALLS for fn in calls_of(kind, shape, dtype, training)]
    us = median_us(calls, args.rounds)
    print(f"{'workload':<10} {'kind':<4} {'shape':<18} {'dtype':<8} {'mode':<6} {'free':>9} {'tape':>9} {'tape+bwd':>9}")
    for i, (workload, kind, shape, dtype, training) in enumerate(CALLS):
        free, tape, tape_bwd = us[3 * i : 3 * i + 3]
        mode = "train" if training else "eval"
        print(
            f"{workload:<10} {kind:<4} {str(shape):<18} {np.dtype(dtype).name:<8} {mode:<6} "
            f"{free:9.1f} {tape:9.1f} {tape_bwd:9.1f}"
        )


if __name__ == "__main__":
    main()
