"""Per-call cost of the convolutions and norm layers at the benchmark workloads' shapes.

Records every distinct ``conv2d`` call and norm-layer call of three workloads,
then prints for each the number of such calls per forward and the median
time of one call in microseconds: ``free`` is the forward with the tape off,
``tape`` with it on, ``tape+bwd`` the taped forward and the backward of its
nodes, seeded with a fixed gradient of the output's shape.  The input gets a
gradient only where the workload's does (``x_grad``), weights and norm
parameters always.

Workloads: micro training (batch 64, 32x32, float32), the gradient check
(batch 2, float64: the micro model at 32x32 and the layer checks' (2, 8, 5, 5)
inputs) and xT inference (batch 1, 224x224, float32, tape off).  A norm row's
``kind`` is ``mvn`` for a ``MultiViewNorm``, else the ``PlainNorm``'s view; a
conv row gives the kernel ``conv2d`` picks.  Each figure is the median over
`--rounds` rounds of as many calls as fill about 10 ms; every round visits
every call in turn, in reverse order on odd rounds.

``--against DIR`` imports the ``mvformer`` package under ``DIR`` (a ``src``
directory) as ``mvformer_against`` and times both trees' calls side by side,
each tree first in turn.  Per row and timing it prints this tree's median, the
other's and their paired ratio: the median over rounds of that round's this /
other time.  Separate runs on a shared machine drift too far apart to compare.
BLAS threads are left as the environment sets them; the benchmark runs on one:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/call_cost.py [--rounds 15] [--against OTHER/src]
"""

import argparse
import importlib
import importlib.util
import sys
import time
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np

from mvformer import mixer, model, norm, tensor
from mvformer.mixer import TokenMixer, make_stage_spec
from mvformer.model import Block, build_model, model_config
from mvformer.tensor import Tensor, grad_enabled

AGAINST = "mvformer_against"
BATCH_SECONDS = 0.01
# printed fields of a row before its timings, with their widths
COLUMNS = (
    ("workload", 10), ("kind", 5), ("x", 16), ("x_grad", 6), ("dtype", 8), ("mode", 5),
    ("w", 14), ("stride", 6), ("pad", 6), ("groups", 6), ("kernel", 20), ("calls", 5),
)


def record(run):
    """The distinct conv2d and norm calls `run()` makes, with their counts, in first-call order.

    A call is keyed by ``(kind, x shape, x needs a gradient, dtype, mode, conv)``.  ``kind`` is
    ``conv`` or the norm's kind; a norm's ``mode`` is ``train`` or ``eval`` and a conv's ``-``;
    a conv's ``conv`` is ``(w shape, has bias, stride, pad, groups)`` and a norm's ``()``.
    """
    seen = Counter()
    real_norm = norm._ViewSum.forward

    def conv_spy(x, w, b=None, stride=1, pad=0, groups=1):
        seen["conv", x.shape, x.requires_grad, x.dtype.name, "-", (w.shape, b is not None, stride, pad, groups)] += 1
        return tensor.conv2d(x, w, b, stride, pad, groups)

    def norm_spy(layer, x, training=False):
        kind = "mvn" if isinstance(layer, norm.MultiViewNorm) else layer.kind
        seen[kind, x.shape, x.requires_grad, x.dtype.name, "train" if training else "eval", ()] += 1
        return real_norm(layer, x, training)

    with patch.object(model, "conv2d", conv_spy), patch.object(mixer, "conv2d", conv_spy):
        with patch.object(norm._ViewSum, "forward", norm_spy):
            run()
    return seen


def micro():
    net = build_model(model_config("micro"), seed=0)
    images = Tensor(np.random.default_rng(0).uniform(0, 1, (64, 3, 32, 32)).astype(np.float32))
    net.forward(images, training=True)


def gradcheck():
    """The layers the gradient check differentiates: the four stages' token mixers, a block, the micro model."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, (2, 8, 5, 5)), requires_grad=True)
    for stage in (1, 2, 3, 4):
        TokenMixer(make_stage_spec(stage, 8), rng).cast_(np.float64).forward(x)
    Block(make_stage_spec(3, 8), "mvn", 2, True, 0.0, rng).cast_(np.float64).forward(x, training=True)
    net = build_model(model_config("micro", num_classes=4), seed=0).cast_(np.float64)
    net.forward(Tensor(rng.uniform(0, 1, (2, 3, 32, 32))), training=True)


def xt():
    net = build_model(model_config("xT"), seed=0)
    image = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 3, 224, 224)).astype(np.float32))
    with grad_enabled(False):
        net.forward(image)


WORKLOADS = {"micro": micro, "gradcheck": gradcheck, "xT": xt}


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


def calls_of(tree, key):
    """The three timed calls of the recorded call `key` on `tree`, a ``(norm, tensor)`` module
    pair: tape-free forward, taped forward, taped forward and backward."""
    norm, tensor = tree
    kind, xs, x_grad, dtype, mode, conv = key
    rng = np.random.default_rng(0)
    x = tensor.Tensor(rng.normal(0.5, 2.0, xs).astype(dtype), requires_grad=x_grad)
    if kind == "conv":
        ws, has_b, stride, pad, groups = conv
        w = tensor.Tensor(rng.normal(size=ws).astype(dtype), requires_grad=True)
        b = tensor.Tensor(rng.normal(size=(1, ws[0], 1, 1)).astype(dtype), requires_grad=True) if has_b else None
        leaves = [t for t in (x, w, b) if t is not None]

        def forward():
            return tensor.conv2d(x, w, b, stride, pad, groups)
    else:
        layer = norm.make_norm(kind, xs[1]).cast_(dtype)
        leaves = [x] + [p.tensor for _, p in layer.named_parameters()]

        def forward():
            return layer.forward(x, mode == "train")

    with tensor.grad_enabled(False):
        gy = rng.normal(size=forward().shape).astype(dtype)

    def free():
        with tensor.grad_enabled(False):
            forward()

    def tape_bwd():
        y = forward()
        tensor.backward(tensor._node(np.zeros((1, 1, 1, 1), dtype), (y,), lambda g, acc: acc(y, gy)))
        for t in leaves:
            t.grad = None

    return free, forward, tape_bwd


def batch_size(fn):
    """How many calls fill about ``BATCH_SECONDS``."""
    fn()
    t0 = time.perf_counter()
    fn()
    return max(1, int(BATCH_SECONDS / max(time.perf_counter() - t0, 1e-7)))


def round_us(calls, rounds, trees):
    """Per call, its µs per call in each round; `calls` holds each timing's calls of the `trees`
    trees side by side.  The rounds visit every call in turn, in reverse on odd rounds, so a slow
    spell of a shared machine falls on all of them alike.  Every other pair of rounds also swaps
    each timing's trees: the first call after another row's runs slower, so no tree always runs it."""
    sizes = [batch_size(fn) for fn in calls]
    times = [[] for _ in calls]
    for r in range(rounds):
        order = list(zip(calls, sizes, times))
        if r // 2 % 2:
            order = [c for i in range(0, len(order), trees) for c in order[i : i + trees][::-1]]
        for fn, k, out in order[::-1] if r % 2 else order:
            t0 = time.perf_counter()
            for _ in range(k):
                fn()
            out.append((time.perf_counter() - t0) / k * 1e6)
    return times


def paired_ratio(this, other):
    """The median over rounds of each round's `this` time over its `other` time.

    The two trees' calls of a row run side by side in every round, so a slow spell slows
    both and cancels in the round's ratio, where it would not in a ratio of two medians
    (Kalibera & Jones, ISMM 2013).
    """
    return float(np.median(np.divide(this, other)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--against", metavar="DIR", help="a source tree to compare with, timed in the same rounds")
    args = parser.parse_args()
    trees = [(norm, tensor)] + ([load_tree(args.against)] if args.against else [])
    rows = [(name, key, count) for name, run in WORKLOADS.items() for key, count in record(run).items()]
    # per row, the three timings of each tree side by side: this tree's free, the other's free, ...
    calls = [fn for _, key, _ in rows for fns in zip(*(calls_of(tree, key) for tree in trees)) for fn in fns]
    times = np.reshape(round_us(calls, args.rounds, len(trees)), (len(rows), 3, len(trees), args.rounds))
    head = " ".join(f"{name:<{width}}" for name, width in COLUMNS)
    against = f" {'against':>9} {'ratio':>6}" if args.against else ""
    print(head, " ".join(f"{t:>9}{against}" for t in ("free", "tape", "tape+bwd")))
    for (workload, key, count), row in zip(rows, times):
        kind, xs, x_grad, dtype, mode, conv = key
        ws, _, stride, pad, groups = conv or ("-",) * 5
        kernel = tensor._conv_plan(xs, ws, None, stride, pad, groups)[0] if conv else "-"
        fields = (workload, kind, xs, x_grad, dtype, mode, ws, stride, pad, groups, kernel, count)
        cells = []
        for timing in row:  # each tree's rounds of one timing
            cells += [f"{np.median(t):9.1f}" for t in timing]
            if args.against:
                cells.append(f"{paired_ratio(*timing):6.3f}")
        # shapes print without spaces, so every field is one word
        print(" ".join(f"{str(v).replace(' ', ''):<{width}}" for v, (_, width) in zip(fields, COLUMNS)), *cells)


if __name__ == "__main__":
    main()
