#!/usr/bin/env python3
"""mvformer benchmark: run one workload once and print one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_micro32 --seed 0 --seconds 25 --trace 0

Workloads: train_micro32, infer_xT224, gradcheck_f64 (see workloads.py and
BENCHMARK.json for why each exists).  With ``--trace 0`` the last line holds
the end-to-end metrics of an untraced run; with ``--trace 1`` it holds the
per-layer table of a traced run, which first measures ``seconds / 2``
untraced and then ``seconds / 2`` traced to report the tracing overhead.
The last line is ``{"correct", "attempted", "failed", "metrics"}``; the
environment fingerprint and the rest of the run go to the lines before it
and to ``perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.

The program is imported from ``src/`` of the checkout that holds this
directory, never from an installed copy; without it the run exits non-zero.
BLAS runs single-threaded, the steadiest setting on a small shared machine.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# set-ups per run: at least this many, and more until this many seconds went into them
SETUP_ROUNDS = 7
SETUP_MIN_S = 3.0
BLAS_THREADS = "1"
WORKLOAD_NAMES = ("train_micro32", "infer_xT224", "gradcheck_f64")


def use_checkout_sources(import_program=True):
    """Pin BLAS threads (before numpy loads) and import mvformer from ../src only."""
    if not (SRC / "mvformer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mvformer sources under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    if not import_program:
        return
    import mvformer

    if Path(mvformer.__file__).resolve().parent != SRC / "mvformer":
        raise SystemExit(f"perfbench: imported mvformer from {mvformer.__file__}, not {SRC}")


def blas_threads():
    """Thread count OpenBLAS reports, or the pinned setting when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return int(BLAS_THREADS)


def fingerprint(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds(name, seed, spec, kernel):
    """Set-up times at the reference speed, and raw: a fresh interpreter imports mvformer and
    builds the workload, again and again (see setup_probe.py)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), json.dumps(asdict(spec)),
           kernel.__name__, str(SETUP_ROUNDS), str(SETUP_MIN_S)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    times = json.loads(done.stdout.splitlines()[-1])
    return times["setup_s"], times["raw_s"]


def completed(seg):
    """The segment, if any operation completed; else there is nothing to report."""
    if not seg.ops:
        raise SystemExit(f"perfbench: no operation completed; failures: {seg.failures}")
    return seg


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mvformer benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, specs=None):
    args = parse_args(argv)
    use_checkout_sources()
    import metrics
    import workloads
    from tracer import Tracer, mac_coverage

    spec = (specs or workloads.SPECS)[args.workload]
    OUT.mkdir(exist_ok=True)
    env = fingerprint(args)
    print("fingerprint: " + json.dumps(env, sort_keys=True), flush=True)
    workload = workloads.WORKLOADS[args.workload]
    setup_s, setup_raw_s = setup_seconds(args.workload, args.seed, spec, workload.slowness)
    bench = workload(spec, args.seed, OUT)
    record = {"fingerprint": env, "spec": asdict(spec),
              "setup": {"at_reference_speed_s": setup_s, "raw_s": setup_raw_s}}
    if not args.trace:
        seg = completed(bench.measure(args.seconds))
        values = metrics.end_to_end(setup_s, seg)
        units = {name: unit for name, unit, *_ in metrics.END_TO_END}
        attempted, failed, failures = seg.attempted, seg.failed, seg.failures
        raw = metrics.raw(setup_raw_s, seg)
        tail_pct = metrics.tail(seg.op_s)[1]
        record["operations"] = {"count": seg.ops, "jobs": seg.jobs, "op_tail_percentile": tail_pct}
        record["raw"] = raw
        print(f"{args.workload}: {seg.ops} operations in {seg.jobs or seg.ops} jobs; "
              f"op_tail_ms is p{tail_pct:.1f} of {seg.ops}", flush=True)
        print("raw, not scaled to the reference speed: "
              + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()), flush=True)
    else:
        base = completed(bench.measure(args.seconds / 2))
        tracer = Tracer()
        with tracer.installed():
            seg = completed(bench.measure(args.seconds / 2, tracer))
        values = metrics.per_layer(tracer, seg, base, setup_raw_s)
        units = {name: unit for name, unit, *_ in metrics.PER_LAYER}
        coverage = mac_coverage()
        attempted = base.attempted + seg.attempted + 1
        failed = base.failed + seg.failed + (1 if coverage else 0)
        failures = base.failures + seg.failures + coverage
        record["operations"] = {"untraced": base.ops, "traced": seg.ops, "traced_jobs": seg.jobs}
        record["spans"] = tracer.spans
        for problem in coverage:
            print(f"check failed: MAC coverage: {problem}", file=sys.stderr)
    record["speed"] = {"factor": seg.speed, "slowness": seg.slowness}
    print(f"speed factor {seg.speed:.4f} (raw seconds x factor = seconds at reference speed), "
          f"{len(seg.slowness)} calibration samples", flush=True)
    metric_values = {name: {"value": values[name], "unit": units[name]} for name in units}
    error_rate = failed / attempted
    record.update(metrics=metric_values, attempted=attempted, failed=failed,
                  error_rate=error_rate, failures=failures)
    for name, m in metric_values.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<36} {error_rate:>14.6g} ({failed}/{attempted})")
    out_file = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metric_values}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
