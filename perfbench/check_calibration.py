#!/usr/bin/env python3
"""Check that scaling to the reference speed passes a known extra cost on in full.

Every reported time is divided by the slowness of a calibration kernel that
runs in the same process, right after mvformer operations (see
calibration.py).  If mvformer's own work changed the kernel's time, for
instance through the heap or GC state its temporaries leave behind, a change
to mvformer would add to, or hide, its own reported gain.

This script injects extra numpy work into every convolution mvformer makes,
512 KiB temporaries included, in a random half of the operations of one
untraced run.  Operations with (B) and without (A) the injection are
interleaved, so a drift in machine speed falls on both alike.  It measures:

- the kernel's slowness right after B operations over that right after the
  A operations near them;
- the injected cost per B operation, timed where it runs, at the reference
  speed;
- the latency of B operations less that of the A operations near them, at
  the reference speed and raw (medians).

The check passes when the kernel's slowness after B is within 5% of that
after A, and the reported change is within 15% of the injected cost.  On a
quiet machine, where the slowness is near 1, the raw change matches both.

    python3 perfbench/check_calibration.py [--workload infer_xT224] [--seconds 60]

Prints one JSON summary line; exits 1 if the check fails.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import statistics
import sys
from time import perf_counter

from run import OUT, use_checkout_sources

KERNEL_TOLERANCE = 0.05
NEIGHBOURS = 4  # operations or kernel samples on each side that one is compared with
COST_TOLERANCE = 0.15
_BLOCK_SHAPE = (128, 1024)  # float32: 512 KiB, above glibc's default mmap threshold
REPEATS = 6  # passes over the block per convolution: ~1.2 ms, a quarter of a train step in all
SEED = 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="infer_xT224", choices=("train_micro32", "infer_xT224"))
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    import numpy as np

    import workloads
    from mvformer import mixer, model
    from tracer import Patcher

    block = np.random.default_rng(0).standard_normal(_BLOCK_SHAPE).astype(np.float32)
    injected = []  # (start, seconds) of each injected piece of work
    inject = [False]
    switches = [(0.0, False)]  # (perf_counter(), inject from then on)
    samples = []  # (kernel slowness, whether the operation just before had the injection)
    coin = random.Random(SEED)

    def with_extra(conv):
        def conv2d(*a, **k):
            if inject[0]:
                t0 = perf_counter()
                for _ in range(REPEATS):
                    np.sqrt(np.abs(block * 1.0001) + 0.5).sum()
                injected.append((t0, perf_counter() - t0))
            return conv(*a, **k)

        return conv2d

    OUT.mkdir(exist_ok=True)
    bench = workloads.WORKLOADS[args.workload](workloads.SPECS[args.workload], SEED, OUT)
    real_slowness = bench.slowness

    def slowness_then_toss():
        value = real_slowness()
        samples.append((value, inject[0]))
        inject[0] = coin.random() < 0.5
        switches.append((perf_counter(), inject[0]))
        return value

    bench.slowness = slowness_then_toss
    patches = Patcher()
    for mod in (mixer, model):
        patches.attr(mod, "conv2d", with_extra(mod.conv2d))
    try:
        seg = bench.measure(args.seconds)
    finally:
        patches.restore()

    switch_at = [t for t, _ in switches]
    starts = [t for t, _ in injected]
    ops = []  # (raw ms, reference-speed ms, injected or not) per operation
    injected_ref_ms = []
    for dur, end, ref in zip(seg.op_s, seg.op_end, seg.op_ref_s()):
        kind = switches[bisect.bisect_right(switch_at, end - dur) - 1][1]
        ops.append((dur * 1e3, ref * 1e3, kind))
        if kind:
            inside = injected[bisect.bisect_left(starts, end - dur):bisect.bisect_right(starts, end)]
            injected_ref_ms.append(sum(d for _, d in inside) * ref / dur * 1e3)

    # Each sample is compared with its neighbours of the other kind, so that
    # the machine's drift, which lasts seconds, cancels out of the comparison.
    def nearby(seq, i, kind):
        lo, hi = max(0, i - NEIGHBOURS), i + 1 + NEIGHBOURS
        return [row for row in seq[lo:hi] if row[-1] == kind]

    def change(col):
        diffs = []
        for i, row in enumerate(ops):
            others = nearby(ops, i, False)
            if row[-1] and others:
                diffs.append(row[col] - statistics.median(o[col] for o in others))
        return statistics.median(diffs)

    ratios = []
    for i, (value, kind) in enumerate(samples):
        others = nearby(samples, i, False)
        if kind and others:
            ratios.append(value / statistics.median(v for v, _ in others))
    kernel_ratio = statistics.median(ratios)

    injected_ms = statistics.median(injected_ref_ms)
    summary = {
        "workload": args.workload,
        "operations": {"without": len(ops) - len(injected_ref_ms), "with": len(injected_ref_ms)},
        "kernel_with_over_without": kernel_ratio,
        "injected_ms_per_op_at_reference_speed": injected_ms,
        "reported_change_ms": change(1),
        "raw_change_ms": change(0),
    }
    summary["reported_over_injected"] = change(1) / injected_ms
    summary["passed"] = (abs(kernel_ratio - 1.0) <= KERNEL_TOLERANCE
                         and abs(summary["reported_over_injected"] - 1.0) <= COST_TOLERANCE)
    print(json.dumps(summary), flush=True)
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
