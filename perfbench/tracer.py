"""Span tracing of mvformer from the outside, by wrapping its public calls.

Nothing in ``src/`` is edited.  ``Tracer.installed()`` replaces, for the
duration of a ``with`` block, the names that mvformer modules import from
each other (``mvformer.norm.moments``, ``mvformer.mixer.conv2d`` ...) and a
few class methods (``MultiViewNorm.forward``, ``AdamW.step`` ...) with
timing wrappers, the same technique as the instrumented-forward MAC test in
``tests/test_analysis.py``.  Calls inside ``mvformer.tensor`` go through
that module's own globals, which are left alone, so op spans never nest.

Backward time is attributed by wrapping the ``_backward`` closure of every
tape node an op creates.  A node remembers the module spans that were open
when it was created, so "ops inside a module span count toward that span"
holds for forward and backward alike.

Statistics are aggregated in memory as calls happen.  Raw spans (name,
start, duration, parent, operation index) are also kept in memory, up to
``max_spans``, and written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from mvformer import data, gradcheck, mixer, model, norm, optim, tensor, training
from mvformer.analysis import cost_report

OP_KINDS = {
    **dict.fromkeys(("add", "sub", "mul", "div", "square", "sqrt", "relu", "exp", "log"), "elementwise"),
    **dict.fromkeys(("tsum", "mean", "moments", "global_avg_pool"), "reduce"),
    **dict.fromkeys(("channel_split", "channel_concat"), "channel"),
    "conv2d": "conv",
}
# modules whose imported tensor ops are wrapped (the points where callers import them)
OP_CALLERS = (norm, mixer, model, training, gradcheck)
CONV_KINDS = ("pw", "dense", "dw3", "dw7", "dwk1", "dw1k")
MODEL_ROWS = tuple(r.name for r in cost_report(model.model_config("micro"), 32).rows)


class Stat:
    """Aggregated counters of one span name; times in seconds."""

    __slots__ = ("calls", "fwd", "bwd", "macs", "nodes", "bytes")

    def __init__(self):
        self.calls = self.macs = self.nodes = self.bytes = 0
        self.fwd = self.bwd = 0.0


def conv_kind(x, w, groups):
    """Per-layer bucket of a convolution call, from its shapes."""
    _, _, kh, kw = w.shape
    if groups == 1:
        return "pw" if kh == kw == 1 else "dense"
    if groups != x.shape[1] or w.shape[1] != 1:
        return "grouped"
    if kh == kw:
        return {3: "dw3", 7: "dw7"}.get(kh, f"dw{kh}")
    return "dwk1" if kw == 1 else "dw1k"


def count_tape(root):
    """Number of grad-requiring nodes reachable from `root` (the tape backward walks)."""
    seen = set()
    stack = [root]
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        stack.extend(t._parents)
    return len(seen)


class Patcher:
    """setattr/setitem with an undo stack, restored in reverse order."""

    def __init__(self):
        self._undo = []

    def attr(self, owner, name, value):
        self._undo.append((setattr, owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def item(self, mapping, key, value):
        self._undo.append((type(mapping).__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self):
        while self._undo:
            setter, owner, name, old = self._undo.pop()
            setter(owner, name, old)


class Tracer:
    def __init__(self, max_spans=5000):
        self.stats = defaultdict(Stat)
        self.max_spans = max_spans
        self.spans = []  # retained raw spans, in the order recorded
        self.op_index = 0  # the workload's current operation (train step, request, loss eval)
        self.overhead = 0.0  # tracer bookkeeping seconds, taken out of enclosing spans
        self.active = True
        self._anc = ()  # names of open module spans, outermost first, no repeats
        self._open = []  # (name, start, overhead at start, retained index, pushed anc)
        self._rows = {}  # id(Downsample | Block) -> cost_report row, during MVFormer.forward
        self._t0 = perf_counter()

    # -- recording -----------------------------------------------------------

    def _keep(self, name, start, dur, parent):
        if len(self.spans) >= self.max_spans:
            return -1
        self.spans.append(
            {"name": name, "start_ms": (start - self._t0) * 1e3, "dur_ms": dur * 1e3,
             "parent": parent, "op": self.op_index}
        )
        return len(self.spans) - 1

    def _parent(self):
        return self._open[-1][3] if self._open else -1

    def _enter(self, name):
        pushed = name not in self._anc
        if pushed:
            self._anc = self._anc + (name,)
        start = perf_counter()
        index = self._keep(name, start, 0.0, self._parent())
        self._open.append((name, start, self.overhead, index, pushed))

    def _exit(self, extra_bytes=0):
        end = perf_counter()
        name, start, overhead0, index, pushed = self._open.pop()
        dur = end - start - (self.overhead - overhead0)
        st = self.stats[name]
        st.calls += 1
        st.fwd += dur
        st.bytes += extra_bytes
        if pushed:
            self._anc = self._anc[:-1]
        if index >= 0:
            self.spans[index]["dur_ms"] = dur * 1e3
        self.overhead += perf_counter() - end

    def span(self, name, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def _wrap_backward(self, bw, name, anc):
        stats = self.stats

        def traced_backward(g, acc):
            t0 = perf_counter()
            bw(g, acc)
            dt = perf_counter() - t0
            stats[name].bwd += dt
            for a in anc:
                stats[a].bwd += dt

        traced_backward.traced = True
        return traced_backward

    def _record_op(self, name, start, dur, args, out, macs):
        st = self.stats[name]
        st.calls += 1
        st.fwd += dur
        st.macs += macs
        anc = self._anc
        inputs = set()
        for a in args:
            if isinstance(a, tensor.Tensor):
                inputs.add(id(a))
            elif isinstance(a, (list, tuple)):
                inputs.update(id(p) for p in a if isinstance(p, tensor.Tensor))
        # wrap the backward of every tape node this call created, walking back to its inputs
        created = 0
        stack = list(out) if isinstance(out, (list, tuple)) else [out]
        while stack:
            t = stack.pop()
            bw = t._backward
            if bw is None or id(t) in inputs or getattr(bw, "traced", False):
                continue
            t._backward = self._wrap_backward(bw, name, anc)
            created += 1
            stack.extend(t._parents)
        st.nodes += created
        for a in anc:
            outer = self.stats[a]
            outer.macs += macs
            outer.nodes += created
        self._keep(name, start, dur, self._parent())

    # -- wrappers --------------------------------------------------------------

    def _op(self, fn, kind):
        def traced_op(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            t1 = perf_counter()
            macs = 0
            if kind == "conv":
                x, w = args[0], args[1]
                k = conv_kind(x, w, kwargs.get("groups", args[5] if len(args) > 5 else 1))
                name = f"tensor.conv.{k}"
                cout, cin_g, kh, kw = w.shape
                n, _, hout, wout = out.shape
                macs = n * cout * hout * wout * cin_g * kh * kw
            else:
                name = f"tensor.{kind}"
            self._record_op(name, t0, t1 - t0, args + tuple(kwargs.values()), out, macs)
            self.overhead += perf_counter() - t1
            return out

        return traced_op

    def _method(self, name, fn):
        def traced_method(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced_method

    def _row_method(self, fn):
        def traced_row(obj, *args, **kwargs):
            row = self._rows.get(id(obj))
            if row is None:  # a block built outside a model (gradcheck's block group)
                return fn(obj, *args, **kwargs)
            return self.span(row, fn, obj, *args, **kwargs)

        return traced_row

    def _model_forward(self, fn):
        def traced_forward(obj, *args, **kwargs):
            rows = {id(e): f"model.embed{i}" for i, e in enumerate(obj.embeds, 1)}
            for s, blocks in enumerate(obj.stages, 1):
                rows.update((id(b), f"model.stage{s}_blocks") for b in blocks)
            outer, self._rows = self._rows, rows
            try:
                return self.span("model.forward", fn, obj, *args, **kwargs)
            finally:
                self._rows = outer

        return traced_forward

    def _backward(self, fn):
        def traced_backward(loss):
            if not self.active:
                return fn(loss)
            t0 = perf_counter()
            nodes = count_tape(loss)
            t1 = perf_counter()
            self.overhead += t1 - t0
            fn(loss)
            st = self.stats["tensor.backward"]
            st.calls += 1
            st.fwd += perf_counter() - t1
            st.nodes += nodes

        return traced_backward

    def _save(self, fn):
        def traced_save(path, *args, **kwargs):
            if not self.active:
                return fn(path, *args, **kwargs)
            self._enter("checkpoint.save")
            try:
                fn(path, *args, **kwargs)
            finally:
                self._exit(extra_bytes=os.path.getsize(path) if os.path.exists(path) else 0)

        return traced_save

    @contextlib.contextmanager
    def installed(self):
        p = Patcher()
        try:
            for mod in OP_CALLERS:
                for fname, kind in OP_KINDS.items():
                    if fname in vars(mod):
                        p.attr(mod, fname, self._op(getattr(mod, fname), kind))
            for mod in (training, gradcheck):
                p.attr(mod, "backward", self._backward(mod.backward))
            spans = (
                (norm.MultiViewNorm, "forward", "norm.mvn"),
                (norm.PlainNorm, "forward", "norm.plain"),
                (mixer.TokenMixer, "forward", "mixer.token_mixer"),
                (mixer, "star_relu", "mixer.star_relu"),
                (model.MVFormer, "features", "model.features"),
                (data.SyntheticDataset, "batch", "data.batch"),
                (optim.AdamW, "step", "optim.step"),
                (training, "ce_label_smoothing", "training.loss"),
                (training, "evaluate", "training.evaluate"),
            )
            for owner, attr, name in spans:
                p.attr(owner, attr, self._method(name, getattr(owner, attr)))
            p.attr(model.MVFormer, "forward", self._model_forward(model.MVFormer.forward))
            p.attr(model.Downsample, "forward", self._row_method(model.Downsample.forward))
            p.attr(model.Block, "forward", self._row_method(model.Block.forward))
            p.attr(training, "save_checkpoint", self._save(training.save_checkpoint))
            for group, fn in list(gradcheck.CHECKS.items()):
                p.item(gradcheck.CHECKS, group, self._method(f"gradcheck.{group}", fn))
            yield self
        finally:
            p.restore()

    @contextlib.contextmanager
    def paused(self):
        """Let calls through untraced (output checks that are not part of the workload)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- derived views -----------------------------------------------------------

    def row_stat(self, row):
        """Stat of one cost_report row; the head is model.forward minus model.features."""
        if row != "head":
            return self.stats[f"model.{row}"]
        fwd, feat = self.stats["model.forward"], self.stats["model.features"]
        head = Stat()
        head.calls = fwd.calls
        head.fwd = fwd.fwd - feat.fwd
        head.bwd = fwd.bwd - feat.bwd
        head.macs = fwd.macs - feat.macs
        return head

    def conv_macs(self):
        return sum(st.macs for name, st in self.stats.items() if name.startswith("tensor.conv."))


def mac_coverage():
    """Problems found when joining traced conv MACs to ``cost_report``, per preset.

    One batch-1 forward per preset: the traced nominal MACs must equal each
    cost_report row and the total, which shows the wrappers saw every
    convolution and attributed it to the right row.
    """
    problems = []
    for preset, hw in (("micro", 32), ("xT", 224)):
        cfg = model.model_config(preset)
        net = model.build_model(cfg, seed=0)
        tr = Tracer(max_spans=0)
        with tr.installed():
            net.forward(tensor.Tensor(np.zeros((1, cfg.input_channels, hw, hw), np.float32)))
        report = cost_report(cfg, hw)
        if tr.conv_macs() != report.total_macs:
            problems.append(f"{preset}@{hw}: traced {tr.conv_macs()} MACs, cost_report {report.total_macs}")
        for row in report.rows:
            if tr.row_stat(row.name).macs != row.macs:
                problems.append(
                    f"{preset}@{hw} {row.name}: traced {tr.row_stat(row.name).macs} MACs, cost_report {row.macs}"
                )
    return problems
