"""Live memory held by the tape of one micro training forward, and xT's peaks.

Builds the micro model (MVN norms) and a batch of 64 random 32x32 images,
then runs one training-mode forward and the label-smoothed loss under
``tracemalloc``.  Prints the bytes still allocated while the loss, and so
the whole tape, is alive, and the number of grad-requiring tape nodes,
leaves included.

A second line gives xT's traced peaks: while building the model (its
float32 weights included), and during one batch-1 224x224 eval forward,
counted above the weights already held.  A third gives the minor page
faults of one steady xT eval forward: the median over five forwards after
two warm-up ones, read with ``getrusage`` while ``tracemalloc`` is off.  A
forward that reuses what the allocator already holds faults 0 times; one
that keeps returning memory to the system and taking it back faults
thousands of times.

    PYTHONPATH=src python scripts/activation_memory.py
"""

import resource
import tracemalloc

import numpy as np

from mvformer.model import build_model, model_config
from mvformer.tensor import Tensor
from mvformer.training import ce_label_smoothing


def tape_nodes(root):
    """Grad-requiring nodes reachable from `root`, leaves included."""
    seen, stack = set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t.requires_grad:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def main():
    model = build_model(model_config("micro"), seed=0)
    rng = np.random.default_rng(0)
    images = Tensor(rng.uniform(0, 1, (64, 3, 32, 32)).astype(np.float32))
    labels = rng.integers(0, model.cfg.num_classes, 64)
    model.forward(images, training=True)  # fills the conv kernels' cached tables, which are not activations
    tracemalloc.start()
    loss = ce_label_smoothing(model.forward(images, training=True), labels, 0.1)
    live, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    print(f"live_mb {live / 1e6:.2f}  tape_nodes {tape_nodes(loss)}")
    del model, images, loss

    tracemalloc.start()
    model = build_model(model_config("xT"), seed=0)
    build_peak = tracemalloc.get_traced_memory()[1]
    image = Tensor(rng.uniform(0, 1, (1, 3, 224, 224)).astype(np.float32))
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    model.forward(image, training=False)
    forward_peak = tracemalloc.get_traced_memory()[1] - held
    tracemalloc.stop()
    print(f"xT build_peak_mb {build_peak / 1e6:.2f}  eval_forward_peak_mb {forward_peak / 1e6:.2f}")

    for _ in range(2):  # warm-up
        model.forward(image, training=False)
    faults = []
    for _ in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.forward(image, training=False)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(f"xT eval_forward_minflt {int(np.median(faults))}")


if __name__ == "__main__":
    main()
