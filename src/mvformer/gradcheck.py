"""Central finite-difference verification of the tape gradients.

The checked graph is re-executed entirely in float64: parameters are cast
in place, the probe inputs are float64, and every op preserves dtype.  For
each parameter a few entries are probed with the fourth-order central
stencil of radius h (evaluations at +-h and +-h/2), so the comparison is
conditioned by h^4; a plain two-point quotient at h=1e-3 carries O(h^2)
truncation above the 1e-3 tolerance on deep compositions even when the
tape gradient is exact.  A wrong backward rule differs by O(1) and is
caught regardless of stencil order.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby

import numpy as np

from .mixer import TokenMixer, make_stage_spec
from .model import Block, build_model, model_config
from .norm import MultiViewNorm
from .tensor import Tensor, backward, cross_entropy, grad_enabled, square, tsum
from .training import smoothed_targets

DEFAULT_STEP = 1e-3
DEFAULT_TOLERANCE = 1e-3
_FLOOR = 1e-4
_MIN_RADIUS = 1e-6  # float64 roundoff on an O(1) loss stays far below tolerance here


def relative_error(analytic, numeric):
    denom = max(abs(analytic), abs(numeric), _FLOOR)
    return abs(analytic - numeric) / denom


def check_gradients(loss_fn, named_tensors, samples_per_param=4, rng=None):
    """Max relative error of tape vs finite-difference gradient, per tensor.

    `loss_fn` must rebuild the graph from the tensors' current data on every
    call and return a scalar tensor.  The tensors must be float64 leaves.
    Only the first call, whose backward gives the analytic gradient, records
    a tape; every stencil evaluation runs under ``grad_enabled(False)``.

    Probes start at radius DEFAULT_STEP.  An estimate landing in the
    ambiguous band (>= DEFAULT_TOLERANCE/2) is re-measured at half, then
    quarter, radius: squared-ReLU kinks inside the probe window contaminate
    any fixed-step stencil, and shrinking the window sharpens the
    measurement.  Below a quarter, halving goes on, down to a radius of
    1e-6, only while the estimate stays ambiguous and the one-sided slopes
    at the window's two ends disagree by as much, the mark of a (ReLU)
    kink still inside it.  Refinement converges the numeric estimate toward
    the true derivative, so it cannot mask a wrong backward rule: a real
    defect fails at every radius.  A non-finite analytic value or estimate
    is error ``inf``.
    """
    rng = rng or np.random.default_rng(0)
    for name, t in named_tensors:
        if t.dtype != np.float64:
            raise ValueError(f"gradient check requires float64 tensors; {name} is {t.dtype}")
        t.grad = None
    loss = loss_fn()
    backward(loss)

    def probe(flat, idx, radius):
        orig = flat[idx]
        values = []
        with grad_enabled(False):
            for delta in (radius, radius / 2, -radius / 2, -radius):
                flat[idx] = orig + delta
                values.append(loss_fn().item())
        flat[idx] = orig
        f_ph, f_ph2, f_mh2, f_mh = values
        estimate = (8.0 * (f_ph2 - f_mh2) - (f_ph - f_mh)) / (6.0 * radius)
        right, left = (f_ph - f_ph2) * 2.0 / radius, (f_mh2 - f_mh) * 2.0 / radius
        kinked = relative_error(right, left) >= DEFAULT_TOLERANCE / 2
        return estimate, kinked

    errors = {}
    for name, t in named_tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        n_entries = flat.size
        k = min(samples_per_param, n_entries)
        idxs = rng.choice(n_entries, size=k, replace=False)
        worst = 0.0
        for idx in idxs:
            a = float(analytic.reshape(-1)[idx])
            radius = DEFAULT_STEP
            estimate, kinked = probe(flat, idx, radius)
            err = relative_error(a, estimate)
            while (err >= DEFAULT_TOLERANCE / 2 and radius / 2 >= _MIN_RADIUS
                   and (radius > DEFAULT_STEP / 4 or kinked)):
                radius /= 2
                estimate, kinked = probe(flat, idx, radius)
                err = relative_error(a, estimate)
            if not (np.isfinite(a) and np.isfinite(estimate)):
                err = np.inf  # relative_error gives NaN here, which max() would drop
            worst = max(worst, err)
        errors[name] = worst
    return errors


def _tensors(*owners):
    """The parameter tensors of `owners`: modules, tensors, or ``None`` for an absent one."""
    return [t for o in owners if o is not None
            for t in ([o] if isinstance(o, Tensor) else [p.tensor for _, p in o.named_parameters()])]


def _training(steps):
    """`steps` as training-mode ``(step(x), params)`` pairs, each step's owners resolved to their tensors."""
    return [(partial(step, training=True), _tensors(*owners)) for step, owners in steps]


def _suffix(steps, x, finish):
    """`loss(start)`: `finish` of ``steps[start:]`` run from the cached input of ``steps[start]``.

    Each step's input is computed once here, tape-free; ``inputs[0]`` is `x`
    itself, so a probe of `x` reaches ``loss(0)``, and ``start`` equal to
    ``len(steps)`` runs `finish` alone.
    """
    inputs = [x]  # inputs[k]: the input of steps[k]; inputs[-1] is finish's
    with grad_enabled(False):
        for step, _ in steps:
            inputs.append(step(inputs[-1]))

    def loss(start):
        y = inputs[start]
        for step, _ in steps[start:]:
            y = step(y)
        return finish(y)

    return loss


def _check_steps(steps, loss, named, samples_per_param, rng):
    """`check_gradients` of each run of consecutive `named` tensors that share an owning step.

    A tensor's owner is the step whose `params` hold it, or ``len(steps)``
    (the finishing loss alone) for a tensor in none.  Each run is checked on
    ``partial(loss, owner)``; the runs keep registry order, so `rng` draws
    the same probes as one check over all of `named`.
    """
    owner = {id(t): k for k, (_, params) in enumerate(steps) for t in params}
    errors = {}
    for start, run in groupby(named, key=lambda item: owner.get(id(item[1]), len(steps))):
        errors.update(check_gradients(
            partial(loss, start), list(run), samples_per_param=samples_per_param, rng=rng,
        ))
    return errors


def _check_layer(layer, steps, rng, scale, samples_per_param):
    """Check `layer`, run as `steps`, in float64 under a sum-of-squares loss on a (2, 8, 5, 5)
    input named ``x``, which the first step reads; its parameters are redrawn at a healthy
    `scale` for conditioning."""
    for _, p in layer.cast_(np.float64).named_parameters():
        p.tensor.data = rng.normal(0.0, scale, p.tensor.shape)
    x = Tensor(rng.uniform(-1.0, 1.0, (2, 8, 5, 5)), requires_grad=True)
    (first, params), *rest = steps
    steps = [(first, [x] + params), *rest]
    named = [("x", x)] + [(n, p.tensor) for n, p in layer.named_parameters()]
    loss = _suffix(steps, x, lambda y: tsum(square(y)))
    return _check_steps(steps, loss, named, samples_per_param, rng)


def check_mvn(seed=0, samples_per_param=4):
    """Gradients of the multi-view norm (training-mode batch statistics)."""
    rng = np.random.default_rng(seed)
    mvn = MultiViewNorm(8)
    return _check_layer(mvn, _training([(mvn.forward, (mvn,))]), rng, 0.5, samples_per_param)


def check_mvtm(seed=0, samples_per_param=4):
    """Gradients of the token mixer for all four stage geometries at C=8."""
    rng = np.random.default_rng(seed)
    errors = {}
    for stage in (1, 2, 3, 4):
        mixer = TokenMixer(make_stage_spec(stage, 8), rng)
        steps = [(mixer.forward, _tensors(mixer))]
        for name, err in _check_layer(mixer, steps, rng, 0.3, samples_per_param).items():
            errors[f"stage{stage}.{name}"] = err
    return errors


def check_block(seed=0, samples_per_param=4):
    """Gradients of a full residual block (stage-3 geometry, res-scaled).

    The block runs as its four steps (`Block.steps`): each norm ends a step,
    so a probe of a mixer, MLP or residual-scale parameter re-runs only its
    branch and what follows, from the cached normalized input.
    """
    rng = np.random.default_rng(seed)
    blk = Block(make_stage_spec(3, 8), "mvn", mlp_ratio=2, use_res_scale=True, drop_prob=0.0, rng=rng)
    return _check_layer(blk, _training(blk.steps), rng, 0.3, samples_per_param)


def suffix_loss(model, images, targets):
    """`loss(start)`: the training loss of `model` re-run from the input of ``model.steps[start]``.

    Each step's input is computed once here, tape-free (inside a block the
    input of a residual step is the pair of the block input and its
    normalized copy), and the label-smoothed targets are built once;
    ``start`` equal to the step count runs the head alone.  The steps before
    ``start`` do not read the parameters of the steps from ``start`` on, so
    the loss and those parameters' tape gradients are the same floats as a
    full ``model.forward(images, training=True)``'s under
    ``ce_label_smoothing(..., 0.1)``.
    """
    q = smoothed_targets(targets, model.cfg.num_classes, 0.1, model.head_fc2_w.dtype)
    return _suffix(_training(model.steps), images, lambda x: cross_entropy(model.head(x, training=True), q))


def check_model(seed=0, samples_per_param=2):
    """End-to-end gradients of the micro model under the training loss.

    A parameter can only change the step that first reads it (its owner in
    `model.steps`: a norm, a block's residual branch, or a downsample's
    conv) and the steps after it, so a probe re-runs only those steps and
    the head, from the owner's cached input (`suffix_loss`); every norm ends
    a step, so a branch probe starts from its normalized input.  Parameters
    are checked in runs of consecutive `named_parameters` entries that share
    an owner, in registry order, so `rng` draws the same probes as one check
    over the whole model.
    """
    rng = np.random.default_rng(seed)
    model = build_model(model_config("micro", num_classes=4), seed=seed).cast_(np.float64)
    loss = suffix_loss(model, Tensor(rng.uniform(0.0, 1.0, (2, 3, 32, 32))), np.array([0, 1]))
    named = [(n, p.tensor) for n, p in model.named_parameters()]
    return _check_steps(_training(model.steps), loss, named, samples_per_param, rng)


CHECKS = {
    "mvn": check_mvn,
    "mvtm": check_mvtm,
    "block": check_block,
    "model": check_model,
}


def run_checks(which="all", seed=0):
    """Run the named check group(s); returns [(group, param, max_rel_err)]."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    names = list(CHECKS) if which == "all" else [which]
    rows = []
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown gradcheck module {name!r}; expected {list(CHECKS)} or 'all'")
        for param, err in CHECKS[name](seed=seed).items():
            rows.append((name, param, err))
    return rows
