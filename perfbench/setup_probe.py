"""Time the set-up of a workload several times and print the times as JSON.

Run by run.py in a fresh interpreter.  One round imports mvformer, then
builds the workload from its spec and seed, exactly as a run does before its
timed loop.  Between rounds every mvformer module is dropped from
``sys.modules``, so each round executes mvformer's import again; only the
first round also reads the files cold.  numpy, the one runtime dependency,
is imported before any clock starts: its import is most of a cold start and
none of mvformer's doing.  Each round is divided by the slowness of the
calibration kernel sampled around it, so the times are at the reference
speed.  Rounds repeat until there are at least ``min_rounds`` of them and
``min_seconds`` went into them.

    python3 perfbench/setup_probe.py <workload> <seed> '<spec as JSON>' <kernel> <min_rounds> <min_seconds>

Prints ``{"setup_s": [...], "raw_s": [...]}``.
"""

import gc
import importlib
import json
import statistics
import sys
import time

from run import OUT, use_checkout_sources

PROGRAM_MODULES = ("mvformer", "mvformer.checkpoint", "mvformer.training")
KERNEL_SAMPLES = 2  # before and after each round


def _drop_program():
    """Forget mvformer and the benchmark modules that hold it, so the next import runs afresh."""
    for name in [m for m in sys.modules if m.partition(".")[0] in ("mvformer", "workloads", "tracer")]:
        del sys.modules[name]
    gc.collect()


def main():
    name, seed, spec = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
    kernel_name, min_rounds, min_seconds = sys.argv[4], int(sys.argv[5]), float(sys.argv[6])
    use_checkout_sources(import_program=False)
    import numpy  # noqa: F401

    import calibration

    kernel = getattr(calibration, kernel_name)
    setup_s, raw_s = [], []
    since = time.perf_counter()
    while len(raw_s) < min_rounds or time.perf_counter() - since < min_seconds:
        _drop_program()
        slowness = [kernel() for _ in range(KERNEL_SAMPLES)]
        t0 = time.perf_counter()
        for module in PROGRAM_MODULES:
            importlib.import_module(module)
        imported = time.perf_counter() - t0
        import workloads  # the benchmark's own code, outside the clock

        t0 = time.perf_counter()
        bench = workloads.WORKLOADS[name](workloads.SPEC_TYPES[name](**spec), seed, OUT)
        raw = imported + time.perf_counter() - t0
        del bench
        slowness += [kernel() for _ in range(KERNEL_SAMPLES)]
        raw_s.append(raw)
        setup_s.append(raw / statistics.median(slowness))
    print(json.dumps({"setup_s": setup_s, "raw_s": raw_s}))


if __name__ == "__main__":
    main()
