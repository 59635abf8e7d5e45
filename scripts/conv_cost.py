"""Per-call cost of the convolutions at the benchmark workloads' shapes.

Records every distinct ``conv2d`` call of three workloads, then prints for
each the number of such calls per forward and the median time of one call in
microseconds:

- ``free``: the forward with the tape off (``grad_enabled(False)``);
- ``tape+bwd``: the forward with the tape on and the backward of its node,
  seeded with a fixed gradient of the output's shape; the input gets a
  gradient only where the workload's does (``x grad``), so the stem's
  backward gives the weights alone.

Workloads: micro training (batch 64, 32x32 input, float32), the gradient
check (batch 2, float64: the micro model at 32x32 and the layer checks'
(2, 8, 5, 5) inputs) and xT inference (batch 1, 224x224 input, float32).
``calls`` counts one forward of each model or layer.
``kernel`` names the kernel that ``conv2d`` picks.  Each figure is the median
over `--rounds` rounds of as many calls as fill about 10 ms; every round
visits every call in turn.

BLAS threads are left as the environment sets them; the benchmark runs on one:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/conv_cost.py [--rounds 15]
"""

import argparse
from collections import Counter

import numpy as np

import mvformer.tensor as tensor
from mvformer import mixer, model
from mvformer.mixer import TokenMixer, make_stage_spec
from mvformer.model import Block, build_model, model_config
from mvformer.tensor import Tensor, _node, backward, conv2d, grad_enabled
from norm_cost import median_us


def record(run):
    """The distinct conv2d calls `run()` makes, with their counts, in first-call order.

    A call is keyed by ``(x shape, x needs a gradient, w shape, has bias, stride, pad,
    groups, dtype)``.
    """
    seen = Counter()
    real = {m: m.conv2d for m in (model, mixer)}

    def spy(x, w, b=None, stride=1, pad=0, groups=1):
        seen[(x.shape, x.requires_grad, w.shape, b is not None, stride, pad, groups, x.dtype.name)] += 1
        return conv2d(x, w, b, stride, pad, groups)

    try:
        for m in real:
            m.conv2d = spy
        run()
    finally:
        for m, fn in real.items():
            m.conv2d = fn
    return seen


def micro():
    net = build_model(model_config("micro"), seed=0)
    images = Tensor(np.random.default_rng(0).uniform(0, 1, (64, 3, 32, 32)).astype(np.float32))
    return record(lambda: net.forward(images, training=True))


def gradcheck_calls():
    """One forward of each layer the gradient check differentiates: the token mixers of
    the four stages and a block on its (2, 8, 5, 5) input, and the micro model."""
    rng = np.random.default_rng(0)
    x = Tensor(rng.uniform(-1, 1, (2, 8, 5, 5)), requires_grad=True)
    mixers = [TokenMixer(make_stage_spec(stage, 8), rng).cast_(np.float64) for stage in (1, 2, 3, 4)]
    block = Block(make_stage_spec(3, 8), "mvn", 2, True, 0.0, rng).cast_(np.float64)
    net = build_model(model_config("micro", num_classes=4), seed=0).cast_(np.float64)
    images = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)))

    def run():
        for layer in mixers:
            layer.forward(x)
        block.forward(x, training=True)
        net.forward(images, training=True)

    return record(run)


def xt():
    net = build_model(model_config("xT"), seed=0)
    image = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 3, 224, 224)).astype(np.float32))
    with grad_enabled(False):
        return record(lambda: net.forward(image))


WORKLOADS = {"micro": micro, "gradcheck": gradcheck_calls, "xT": xt}


def kernel_of(key):
    """The kernel ``conv2d`` routes the call `key` to."""
    xs, _, ws, _, stride, pad, groups, _ = key
    return tensor._conv_plan(xs, ws, None, stride, pad, groups)[0]


def calls_of(key):
    """The two timed calls of one row: tape-free forward, taped forward and backward."""
    xs, x_grad, ws, has_b, stride, pad, groups, dtype = key
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=xs).astype(dtype), requires_grad=x_grad)
    w = Tensor(rng.normal(size=ws).astype(dtype), requires_grad=True)
    b = Tensor(rng.normal(size=(1, ws[0], 1, 1)).astype(dtype), requires_grad=True) if has_b else None
    with grad_enabled(False):
        gy = rng.normal(size=conv2d(x, w, b, stride, pad, groups).shape).astype(dtype)

    def free():
        with grad_enabled(False):
            conv2d(x, w, b, stride, pad, groups)

    def tape_bwd():
        y = conv2d(x, w, b, stride, pad, groups)
        backward(_node(np.zeros((1, 1, 1, 1), dtype), (y,), lambda g, acc: acc(y, gy)))
        for t in (x, w, b):
            if t is not None:
                t.grad = None

    return free, tape_bwd


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    rows = [(name, key, count) for name, calls in WORKLOADS.items() for key, count in calls().items()]
    us = median_us([fn for _, key, _ in rows for fn in calls_of(key)], args.rounds)
    print(
        f"{'workload':<10} {'x':<18} {'w':<16} {'stride':<7} {'pad':<8} {'groups':>6} {'dtype':<8} "
        f"{'x grad':<6} {'kernel':<20} {'calls':>5} {'free':>9} {'tape+bwd':>9}"
    )
    for i, (name, key, count) in enumerate(rows):
        xs, x_grad, ws, _, stride, pad, groups, dtype = key
        free, tape_bwd = us[2 * i : 2 * i + 2]
        print(
            f"{name:<10} {str(xs):<18} {str(ws):<16} {str(stride):<7} {str(pad):<8} {groups:>6} {dtype:<8} "
            f"{str(x_grad):<6} {kernel_of(key):<20} {count:>5} {free:9.1f} {tape_bwd:9.1f}"
        )


if __name__ == "__main__":
    main()
