"""Live memory held by the tape of one micro training forward.

Builds the micro model (MVN norms) and a batch of 64 random 32x32 images,
then runs one training-mode forward and the label-smoothed loss under
``tracemalloc``.  Prints the bytes still allocated while the loss, and so
the whole tape, is alive, and the number of grad-requiring tape nodes,
leaves included.

    PYTHONPATH=src python scripts/activation_memory.py
"""

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


if __name__ == "__main__":
    main()
