"""Metric names and units, and which end-to-end metric each layer should move.

``BENCHMARK.json`` lists the same metrics; ``test_perfbench.py`` keeps the
two in step.  End-to-end metrics are defined on every workload, with the
workload's *operation* as the unit of work:

    train_micro32   one training step: data, forward, loss, backward, AdamW
    infer_xT224     one eval-mode forward of one 224x224 image
    gradcheck_f64   one evaluation of a gradient-check loss

Every time is reported at the reference machine speed (see calibration.py),
so that the drifting CPU speed of a shared machine does not read as a
change of mvformer.  Units say so: ``ref_ms`` is milliseconds at the
reference speed.  ``setup_s`` is at the reference speed too; its unit is
fixed at ``s``.  The raw figures are printed, written to the result file
and, in the traced run, reported as ``raw.*``.

Per-layer metrics come from the traced run only.  ``/op`` values are totals
of the traced segment divided by its operation count, so work outside the
operations (end-of-epoch eval, checkpoints, the gradient check's backward
passes) is amortised over them; ``/job`` values are per train_loop call or
per gradient-check suite.
"""

from __future__ import annotations

import math
import statistics

from tracer import CONV_KINDS, MODEL_ROWS

TRAIN, INFER, GRAD = "train_micro32", "infer_xT224", "gradcheck_f64"

# name, unit, better, bound (share of the parent's median), meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "import mvformer (numpy already imported) and build the workload; median of at least 7"
     " rounds and at least 3 s of them, in one fresh interpreter"),
    ("peak_rss_mb", "MB", "lower", 0.1, "peak resident memory by the end of the timed loop"),
    ("op_p50_ms", "ref_ms", "lower", 0.25, "median operation latency"),
    ("op_tail_ms", "ref_ms", "lower", 0.25,
     "operation latency at the highest percentile, up to p90, with 10 samples beyond it"),
    ("items_per_s", "1/ref_s", "higher", 0.25,
     "training samples (train_loop wall, eval and checkpoints included), images, or loss "
     "evaluations (suite wall) per second"),
)

# raw (unscaled) twins of the timed end-to-end metrics: name, unit, better
RAW = (("setup_s", "s", "lower"), ("op_p50_ms", "ms", "lower"), ("op_tail_ms", "ms", "lower"),
       ("items_per_s", "1/s", "higher"))

_STEP = [(TRAIN, "op_p50_ms")]
_CONV = [(TRAIN, "op_p50_ms"), (INFER, "op_p50_ms")]
_AUTODIFF = [(TRAIN, "op_p50_ms"), (GRAD, "items_per_s")]
_TRAIN_WALL = [(TRAIN, "items_per_s")]
_SUITE = [(GRAD, "items_per_s")]


def _layer(prefix, fields, moves):
    return [(f"{prefix}.{field}", unit, better, moves) for field, unit, better in fields]


_CALLS = ("calls", "count/op", "lower")
_FWD = ("fwd_ms", "ref_ms/op", "lower")
_BWD = ("bwd_ms", "ref_ms/op", "lower")
_GMACS = ("gmacs_per_s", "GMAC/ref_s", "higher")

# name, unit, better, [(workload, end-to-end metric it should move)]
PER_LAYER = (
    [m for k in CONV_KINDS for m in _layer(
        f"tensor.conv.{k}",
        (_CALLS, _FWD, _BWD, ("macs", "MAC/op", "lower"), _GMACS),
        _CONV)]
    + [("tensor.backward_ms", "ref_ms/op", "lower", _AUTODIFF),
       ("tensor.tape_nodes", "count/call", "lower", _AUTODIFF)]
    + [m for c in ("elementwise", "reduce", "channel") for m in _layer(f"tensor.{c}", (_FWD, _BWD), _AUTODIFF)]
    + [m for n in ("mvn", "plain") for m in _layer(
        f"norm.{n}", (_CALLS, _FWD, _BWD, ("tape_nodes", "count/call", "lower")), _AUTODIFF)]
    + [m for n in ("token_mixer", "star_relu") for m in _layer(f"mixer.{n}", (_CALLS, _FWD, _BWD), _CONV)]
    + [m for r in MODEL_ROWS for m in _layer(
        f"model.{r}", (_FWD, _BWD, _GMACS), _CONV)]
    + [("data.batch_ms", "ref_ms/op", "lower", _TRAIN_WALL),
       ("training.loss_ms", "ref_ms/op", "lower", _TRAIN_WALL),
       ("training.evaluate_ms", "ref_ms/op", "lower", _TRAIN_WALL),
       ("optim.step_ms", "ref_ms/op", "lower", _STEP),
       ("checkpoint.save_ms", "ref_ms/op", "lower", _TRAIN_WALL),
       ("checkpoint.bytes", "B/call", "lower", _TRAIN_WALL)]
    + [(f"gradcheck.{g}_s", "ref_s/job", "lower", _SUITE) for g in ("mvn", "mvtm", "block", "model")]
    + [("gradcheck.loss_evals", "count/job", "lower", _SUITE),
       ("gradcheck.refined_per_probe", "ratio", "lower", _SUITE),
       ("trace.overhead_pct", "%", "lower", [])]
    # the untraced half's end-to-end figures, not scaled to the reference speed
    + [(f"raw.{name}", unit, better, []) for name, unit, better in RAW]
)


TAIL_MAX_PERCENTILE = 90


def tail(samples):
    """(value, percentile): the highest percentile, up to p90, with at least 10 samples beyond it.

    In a run of a thousand operations and more (the gradient check), the
    latency bends upwards from about p95 on, where garbage collections and
    stalls of the machine take over from mvformer's own cost.  With 10 or
    fewer samples there is no such percentile; the maximum is returned with
    percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    i = min(n - 11, math.ceil(n * TAIL_MAX_PERCENTILE / 100) - 1)
    return ordered[i], 100.0 * (i + 1) / n


def end_to_end(setup_s, seg):
    """The end-to-end metrics of one untraced segment, at the reference speed.

    `setup_s` holds set-up samples already scaled to the reference speed.
    """
    op_s = seg.op_ref_s()
    return {
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": seg.peak_rss_mb,
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_tail_ms": tail(op_s)[0] * 1e3,
        "items_per_s": seg.items / seg.wall_ref_s(),
    }


def raw(setup_raw_s, seg):
    """The timed end-to-end metrics in raw seconds, as the clock read them."""
    return {
        "setup_s": statistics.median(setup_raw_s),
        "op_p50_ms": statistics.median(seg.op_s) * 1e3,
        "op_tail_ms": tail(seg.op_s)[0] * 1e3,
        "items_per_s": seg.items / seg.wall_s,
    }


def _per(value, count):
    return value / count if count else 0.0


# per-layer field -> value from a tracer.Stat, the operation count and the speed factor
_FIELDS = {
    "calls": lambda st, ops, speed: _per(st.calls, ops),
    "fwd_ms": lambda st, ops, speed: _per(st.fwd * speed * 1e3, ops),
    "bwd_ms": lambda st, ops, speed: _per(st.bwd * speed * 1e3, ops),
    "macs": lambda st, ops, speed: _per(st.macs, ops),
    "gmacs_per_s": lambda st, ops, speed: _per(st.macs / 1e9, st.fwd * speed),
    "tape_nodes": lambda st, ops, speed: _per(st.nodes, st.calls),
}


def per_layer(tracer, seg, untraced, setup_raw_s):
    """Per-layer metrics of a traced segment and its untraced twin, at the reference speed
    except for ``raw.*``."""
    ops, speed, stats = seg.ops, seg.speed, tracer.stats
    out = {}
    for name, *_ in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if field in _FIELDS and prefix != "tensor":
            st = tracer.row_stat(prefix[len("model."):]) if prefix.startswith("model.") else stats[prefix]
            out[name] = _FIELDS[field](st, ops, speed)
    bw = stats["tensor.backward"]
    out["tensor.backward_ms"] = _per(bw.fwd * speed * 1e3, ops)
    out["tensor.tape_nodes"] = _per(bw.nodes, bw.calls)
    for name, key in (("data.batch_ms", "data.batch"), ("training.loss_ms", "training.loss"),
                      ("training.evaluate_ms", "training.evaluate"), ("optim.step_ms", "optim.step"),
                      ("checkpoint.save_ms", "checkpoint.save")):
        out[name] = _per(stats[key].fwd * speed * 1e3, ops)
    ck = stats["checkpoint.save"]
    out["checkpoint.bytes"] = _per(ck.bytes, ck.calls)
    for g in ("mvn", "mvtm", "block", "model"):
        out[f"gradcheck.{g}_s"] = _per(stats[f"gradcheck.{g}"].fwd * speed, seg.jobs)
    out["gradcheck.loss_evals"] = _per(seg.loss_evals, seg.jobs)
    out["gradcheck.refined_per_probe"] = _per(seg.retries, seg.probes)
    base_ops = untraced.op_ref_s()
    out["trace.overhead_pct"] = 100.0 * (statistics.median(seg.op_ref_s()) / statistics.median(base_ops) - 1.0)
    out.update((f"raw.{name}", value) for name, value in raw(setup_raw_s, untraced).items())
    return out
