"""The benchmark workloads: set-up, the timed closed loop, and output checks.

Each workload class is built from its spec and the run's seed; building it
is the set-up that ``setup_s`` times.  ``measure(seconds, tracer)`` runs
operations one after another until ``seconds`` have passed (at least one
job), checks every output, and returns a ``Segment``.  The seed fixes the
model initialisation, the data and input draws, and the gradient-check RNG.
"""

from __future__ import annotations

import bisect
import contextlib
import inspect
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from mvformer import gradcheck
from mvformer.checkpoint import load_checkpoint, read_meta
from mvformer.data import SyntheticDataset, SyntheticSpec
from mvformer.model import build_model, model_config
from mvformer.optim import AdamW
from mvformer.tensor import Tensor
from mvformer.training import (
    TrainConfig,
    evaluate,
    model_from_meta,
    resolve_data_spec,
    resolve_model_config,
    train_loop,
)

from calibration import dispatch_slowness, mixed_slowness
from tracer import Patcher


CALIBRATE_EVERY_S = 0.05  # least time between two kernel samples
# An operation is scaled by the median of the kernel samples this far either
# side of its nearest one; a single sample carries noise of its own.
NEAR_SAMPLES = 2


@dataclass
class Segment:
    """Outcome of one ``measure`` call; times are raw seconds unless named otherwise."""

    op_s: list = field(default_factory=list)  # latency of every operation
    op_end: list = field(default_factory=list)  # perf_counter() at the end of each operation
    items: int = 0  # samples trained, images inferred, or losses evaluated
    wall_s: float = 0.0  # wall time the items took, calibration excluded
    attempted: int = 0
    failed: int = 0
    jobs: int = 0
    peak_rss_mb: float = 0.0
    loss_evals: int = 0
    probes: int = 0  # gradient-check probes, and the smaller-radius retries among them
    retries: int = 0
    failures: list = field(default_factory=list)
    slowness_fn: object = mixed_slowness  # the calibration kernel
    slowness_at: list = field(default_factory=list)  # perf_counter() after each calibration
    slowness: list = field(default_factory=list)  # kernel time over its reference time
    calibration_s: float = 0.0  # time spent calibrating, to subtract from walls

    @property
    def ops(self):
        return len(self.op_s)

    @property
    def speed(self):
        """Mean factor that turns raw seconds into seconds at the reference speed."""
        return statistics.fmean(1.0 / s for s in self.slowness)

    def op_ref_s(self):
        """Each operation's latency at the reference speed, by the kernel samples nearest to it."""
        out = []
        at = self.slowness_at
        for dur, end in zip(self.op_s, self.op_end):
            i = bisect.bisect_left(at, end)
            if i == len(at) or (i > 0 and end - at[i - 1] < at[i] - end):
                i -= 1
            near = self.slowness[max(0, i - NEAR_SAMPLES):i + NEAR_SAMPLES + 1]
            out.append(dur / statistics.median(near))
        return out

    def wall_ref_s(self):
        """Wall time at the reference speed: operations by their own samples, the rest by the mean."""
        ops = sum(self.op_s)
        return sum(self.op_ref_s()) + (self.wall_s - ops) * self.speed

    def op_done(self, seconds, tracer=None):
        """Record one operation; advances the trace op index and calibrates when due."""
        t0 = perf_counter()
        self.op_s.append(seconds)
        self.op_end.append(t0)
        if tracer is not None:
            tracer.op_index += 1
        if self.slowness_at and t0 < self.slowness_at[-1] + CALIBRATE_EVERY_S:
            return
        self.slowness.append(self.slowness_fn())
        t1 = perf_counter()
        self.slowness_at.append(t1)
        self.calibration_s += t1 - t0
        if tracer is not None:
            tracer.overhead += t1 - t0  # keeps it out of the enclosing spans

    def fail(self, count, message):
        self.failed += count
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def measure_jobs(workload, seconds, tracer):
    """Run ``workload._job`` until `seconds` have passed, at least once.

    Another job starts only while half the last one still fits before the
    deadline, so that a run ends near `seconds` on average, not a whole job
    past it.
    """
    seg = Segment(slowness_fn=workload.slowness)
    deadline = perf_counter() + seconds
    last = 0.0
    while not seg.jobs or perf_counter() + last / 2 < deadline:
        t0 = perf_counter()
        workload._job(seg, tracer)
        last = perf_counter() - t0
    seg.peak_rss_mb = peak_rss_mb()
    return seg


# -- train_micro32 -----------------------------------------------------------------


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 4
    warmup_epochs: int = 1
    batch_size: int = 64
    train_size: int = 512
    val_size: int = 256
    image_size: int = 32


class TrainWorkload:
    """``train_loop`` on the micro preset with MVN; one job is one train_loop call.

    An operation is one step (data, forward, loss, backward, AdamW), timed
    from the step's ``dataset.batch`` call to the return of ``AdamW.step``;
    end-of-epoch eval and checkpoint writes fall outside steps but inside
    the job's wall time.  Each job gets a fresh model and dataset, built
    outside its wall time.
    """

    slowness = staticmethod(mixed_slowness)

    def __init__(self, spec, seed, workdir):
        self.cfg = TrainConfig(
            preset="micro", norm="mvn", epochs=spec.epochs, warmup_epochs=spec.warmup_epochs,
            batch_size=spec.batch_size, train_size=spec.train_size, val_size=spec.val_size,
            image_size=spec.image_size, seed=seed,
        )
        self.model_cfg = resolve_model_config(self.cfg)
        self.data_spec = resolve_data_spec(self.cfg)
        self.dataset = SyntheticDataset(self.data_spec)
        self.model = build_model(self.model_cfg, seed=seed)
        self.workdir = workdir

    def measure(self, seconds, tracer=None):
        return measure_jobs(self, seconds, tracer)

    def _job(self, seg, tracer):
        # Every job starts from a fresh model and dataset, as a user's
        # train_loop does; those built in __init__ serve the first job.
        model, ds, self.model, self.dataset = self.model, self.dataset, None, None
        if model is None:
            with _paused(tracer):
                model = build_model(self.model_cfg, seed=self.cfg.seed)
                ds = SyntheticDataset(self.data_spec)
        out_dir = tempfile.mkdtemp(dir=self.workdir)
        step_count = [0]
        batch_start = [0.0]
        real_step = AdamW.step

        def batch(indices):
            batch_start[0] = perf_counter()
            return type(ds).batch(ds, indices)

        def step(opt, lr=None):
            real_step(opt, lr)
            seg.op_done(perf_counter() - batch_start[0], tracer)
            step_count[0] += 1

        patches = Patcher()
        patches.attr(AdamW, "step", step)
        ds.batch = batch
        history = None
        calibration0 = seg.calibration_s
        t0 = perf_counter()
        try:
            history = train_loop(model, ds, self.cfg, out_dir)
        except Exception:  # the program failed this job; record it and keep measuring
            traceback.print_exc()
        finally:
            wall = perf_counter() - t0 - (seg.calibration_s - calibration0)
            del ds.batch
            patches.restore()
        steps = step_count[0]
        seg.attempted += max(1, steps)
        seg.jobs += 1
        seg.wall_s += wall
        try:
            if history is None:
                seg.fail(max(1, steps), "train_loop raised")
                return
            seg.items += self.cfg.epochs * self.cfg.train_size
            with _paused(tracer):
                problem = self._check(history, out_dir)
            if problem:
                seg.fail(steps, problem)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check(self, history, out_dir):
        losses = [row.train_loss for row in history]
        if not all(math.isfinite(v) for v in losses):
            return f"non-finite train loss in {losses}"
        if not losses[-1] < math.log(self.cfg.classes):
            return f"final train loss {losses[-1]} is not below ln {self.cfg.classes}"
        best = os.path.join(out_dir, "best.ckpt")
        reloaded = build_model(model_from_meta(read_meta(best)), seed=self.cfg.seed)
        load_checkpoint(best, reloaded)
        recorded = max(row.val_acc for row in history)
        ds = SyntheticDataset(self.data_spec)
        again = evaluate(reloaded, ds, ds.val_indices, self.cfg.batch_size)
        if again != recorded:
            return f"best.ckpt evaluates to val_acc {again}, train_loop recorded {recorded}"
        return None


# -- infer_xT224 -----------------------------------------------------------------------

# The float32 vs float64 logits gap is ~5e-7 relative.  The check catches a
# broken float32 path (a specialised kernel, lost precision); a bug both
# dtypes share is left to gradcheck_f64 and the oracle tests.
INFER_RTOL = 1e-4


@dataclass(frozen=True)
class InferSpec:
    preset: str = "xT"
    image_size: int = 224
    pool: int = 3  # distinct inputs, cycled; each has a float64 reference
    warmup: int = 2


class InferWorkload:
    """Eval-mode ``MVFormer.forward`` at batch 1, one request after another."""

    slowness = staticmethod(mixed_slowness)

    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.model = build_model(model_config(spec.preset), seed=seed)
        images = SyntheticDataset(SyntheticSpec(image_size=spec.image_size, seed=seed))
        self.inputs = [Tensor(images.sample(i)[0][None]) for i in range(spec.pool)]
        self.refs = None
        self.warm = False

    def measure(self, seconds, tracer=None):
        if not self.warm:
            for i in range(self.spec.warmup):
                self.model.forward(self.inputs[i % self.spec.pool], training=False)
            self.warm = True
        seg = Segment(slowness_fn=self.slowness)
        outputs = []
        t_start = perf_counter()
        deadline = t_start + seconds
        while not outputs or perf_counter() < deadline:
            k = len(outputs) % self.spec.pool
            t0 = perf_counter()
            logits = self.model.forward(self.inputs[k], training=False).data
            seg.op_done(perf_counter() - t0, tracer)
            outputs.append((k, logits))
        seg.wall_s = perf_counter() - t_start - seg.calibration_s
        seg.items = seg.attempted = len(outputs)
        seg.peak_rss_mb = peak_rss_mb()
        with _paused(tracer):
            refs = self._references()
        for i, (k, logits) in enumerate(outputs):
            if not np.isfinite(logits).all():
                seg.fail(1, f"request {i}: non-finite logits")
                continue
            gap = float(np.abs(logits - refs[k]).max() / np.abs(refs[k]).max())
            if not gap <= INFER_RTOL:
                seg.fail(1, f"request {i}: logits differ from float64 by {gap:.3g} relative")
        return seg

    def _references(self):
        """Logits of a float64 cast of the same model on each input (computed once)."""
        if self.refs is None:
            self.model.cast_(np.float64)
            try:
                self.refs = [
                    self.model.forward(Tensor(x.data.astype(np.float64)), training=False).data
                    for x in self.inputs
                ]
            finally:
                self.model.cast_(np.float32)  # float32 -> float64 -> float32 is exact
        return self.refs


# -- gradcheck_f64 -----------------------------------------------------------------------


@dataclass(frozen=True)
class GradcheckSpec:
    which: str = "all"


class GradcheckWorkload:
    """``gradcheck.run_checks(which, seed)``.

    Groups differ ~20x in loss cost, so a latency over all of them would sit
    on the boundary between groups.  An operation is one loss evaluation of
    the ``model`` group, ~90% of the suite's time, or of the one group
    checked; every loss evaluation counts toward ``items``, ``attempted``
    and ``loss_evals``.
    """

    slowness = staticmethod(dispatch_slowness)

    def __init__(self, spec, seed, workdir):
        self.spec = spec
        self.seed = seed
        self.latency_group = "model" if spec.which == "all" else spec.which

    def measure(self, seconds, tracer=None):
        return measure_jobs(self, seconds, tracer)

    def _job(self, seg, tracer):
        real_check = gradcheck.check_gradients
        signature = inspect.signature(real_check)
        evals = Counter()
        group = [None]

        def counted_check(loss_fn, named_tensors, *args, **kwargs):
            named = list(named_tensors)
            bound = signature.bind(loss_fn, named, *args, **kwargs)
            bound.apply_defaults()
            per_param = bound.arguments["samples_per_param"]
            probes = sum(min(per_param, t.size) for _, t in named)
            before = evals[group[0]]

            def timed_loss():
                t0 = perf_counter()
                out = loss_fn()
                if group[0] == self.latency_group:
                    seg.op_done(perf_counter() - t0, tracer)
                evals[group[0]] += 1
                return out

            result = real_check(timed_loss, named, *args, **kwargs)
            # one evaluation for the tape gradient, four per stencil, one stencil per probe plus retries
            seg.probes += probes
            seg.retries += (evals[group[0]] - before - 1 - 4 * probes) // 4
            return result

        def in_group(name, fn):
            def run(*args, **kwargs):
                group[0] = name
                return fn(*args, **kwargs)

            return run

        patches = Patcher()
        patches.attr(gradcheck, "check_gradients", counted_check)
        for name, fn in list(gradcheck.CHECKS.items()):
            patches.item(gradcheck.CHECKS, name, in_group(name, fn))
        rows = None
        calibration0 = seg.calibration_s
        t0 = perf_counter()
        try:
            rows = gradcheck.run_checks(self.spec.which, self.seed)
        except Exception:  # the program failed this job; record it and keep measuring
            traceback.print_exc()
        finally:
            wall = perf_counter() - t0 - (seg.calibration_s - calibration0)
            patches.restore()
        total = sum(evals.values())
        seg.jobs += 1
        seg.attempted += max(1, total)
        seg.loss_evals += total
        seg.wall_s += wall
        if rows is None:
            seg.fail(max(1, total), "run_checks raised")
            return
        seg.items += total
        bad = sorted({g for g, _, err in rows if not err < gradcheck.DEFAULT_TOLERANCE})
        if bad:
            worst = {g: max(err for gg, _, err in rows if gg == g) for g in bad}
            seg.fail(sum(evals[g] for g in bad), f"gradient check groups above tolerance: {worst}")


WORKLOADS = {
    "train_micro32": TrainWorkload,
    "infer_xT224": InferWorkload,
    "gradcheck_f64": GradcheckWorkload,
}
SPEC_TYPES = {
    "train_micro32": TrainSpec,
    "infer_xT224": InferSpec,
    "gradcheck_f64": GradcheckSpec,
}
SPECS = {name: spec_type() for name, spec_type in SPEC_TYPES.items()}
