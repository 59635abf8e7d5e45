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
as many calls as fill about 10 ms; every round visits every call in turn,
in reverse order on odd rounds.

``--against DIR`` compares two source trees in one process: it imports the
``mvformer`` package under ``DIR`` (a ``src`` directory) as
``mvformer_against``, times both trees' calls in the same interleaved rounds
and prints, per row and timing, this tree's median, the other's and their
ratio (this / other).  Separate runs on a shared machine drift too far apart
to compare.

    PYTHONPATH=src python scripts/norm_cost.py [--rounds 15] [--against OTHER/src]
"""

import argparse
import importlib
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from mvformer import norm, tensor

AGAINST = "mvformer_against"

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


def load_tree(src):
    """The ``norm`` and ``tensor`` modules of the ``mvformer`` package under `src`, imported as `AGAINST`."""
    init = Path(src, "mvformer", "__init__.py")
    if not init.is_file():
        raise SystemExit(f"--against: no mvformer package under {src}")
    spec = importlib.util.spec_from_file_location(AGAINST, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[AGAINST] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{AGAINST}.norm"), importlib.import_module(f"{AGAINST}.tensor")


def layer_for(norm, kind, c, dtype, rng):
    layer = (norm.MultiViewNorm(c) if kind == "mvn" else norm.PlainNorm(c, kind)).cast_(dtype)
    for _, p in layer.named_parameters():
        p.tensor.data = rng.normal(1.0, 0.2, p.data.shape).astype(dtype)
    for _, buf in layer.named_buffers():
        buf[:] = rng.uniform(0.5, 1.5, buf.shape)
    return layer


def calls_of(tree, kind, shape, dtype, training):
    """The three timed calls of one row on `tree`, a ``(norm, tensor)`` module pair: tape-free
    forward, taped forward, taped forward and backward."""
    norm, tensor = tree
    Tensor, _node, backward, grad_enabled = tensor.Tensor, tensor._node, tensor.backward, tensor.grad_enabled
    rng = np.random.default_rng(0)
    layer = layer_for(norm, kind, shape[1], dtype, rng)
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
    """Median per-call µs of each call; the rounds visit every call in turn, in reverse on odd
    rounds, so a slow spell of a shared machine falls on all of them alike."""
    sizes = [batch_size(fn) for fn in calls]
    times = [[] for _ in calls]
    for r in range(rounds):
        order = list(zip(calls, sizes, times))
        for fn, k, out in order[::-1] if r % 2 else order:
            t0 = time.perf_counter()
            for _ in range(k):
                fn()
            out.append((time.perf_counter() - t0) / k)
    return [float(np.median(t)) * 1e6 for t in times]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--against", metavar="DIR", help="a source tree to compare with, timed in the same rounds")
    args = parser.parse_args()
    trees = [(norm, tensor)] + ([load_tree(args.against)] if args.against else [])
    # per row, the three timings of each tree side by side: this tree's free, the other's free, ...
    calls = [
        fn
        for workload, kind, shape, dtype, training in CALLS
        for fns in zip(*(calls_of(tree, kind, shape, dtype, training) for tree in trees))
        for fn in fns
    ]
    us = median_us(calls, args.rounds)
    per_row = 3 * len(trees)
    head = f"{'workload':<10} {'kind':<4} {'shape':<18} {'dtype':<8} {'mode':<6} "
    if args.against:
        print(head + " ".join(f"{t:>9} {'against':>9} {'ratio':>6}" for t in ("free", "tape", "tape+bwd")))
    else:
        print(head + f"{'free':>9} {'tape':>9} {'tape+bwd':>9}")
    for i, (workload, kind, shape, dtype, training) in enumerate(CALLS):
        row = us[per_row * i : per_row * (i + 1)]
        mode = "train" if training else "eval"
        if args.against:
            cells = " ".join(f"{a:9.1f} {b:9.1f} {a / b:6.3f}" for a, b in zip(row[::2], row[1::2]))
        else:
            cells = " ".join(f"{a:9.1f}" for a in row)
        print(f"{workload:<10} {kind:<4} {str(shape):<18} {np.dtype(dtype).name:<8} {mode:<6} {cells}")


if __name__ == "__main__":
    main()
