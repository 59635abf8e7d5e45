"""The checker itself: calibration, guards, and detection power."""

import numpy as np
import pytest

import mvformer.gradcheck as gradcheck
import mvformer.mixer as mixer_mod
import mvformer.model as model_mod
from mvformer.gradcheck import (
    DEFAULT_TOLERANCE,
    _training,
    check_block,
    check_gradients,
    check_model,
    relative_error,
    run_checks,
    suffix_loss,
)
from mvformer.mixer import ABLATION_MODES, make_stage_spec
from mvformer.model import NORM_KINDS, PRESETS, Block, MVFormer, build_model, model_config
from mvformer.norm import MultiViewNorm, PlainNorm
from mvformer.tensor import Tensor, _node, backward, grad_enabled, square, tsum
from mvformer.training import ce_label_smoothing


class TestCheckGradients:
    def test_correct_gradient_passes(self):
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 2, 3, 3)), requires_grad=True)
        errs = check_gradients(lambda: tsum(square(x)), [("x", x)])
        assert errs["x"] < 1e-6

    def test_wrong_backward_detected(self):
        x = Tensor(np.random.default_rng(1).uniform(0.5, 1.5, (1, 1, 2, 2)), requires_grad=True)

        def bad_square(t):
            data = t.data * t.data

            def bw(g, acc):
                acc(t, 2.5 * t.data * g)  # should be 2.0

            return _node(data, (t,), bw)

        errs = check_gradients(lambda: tsum(bad_square(x)), [("x", x)])
        assert errs["x"] > 0.1

    @staticmethod
    def kinked(x, slope_scale=1.0):
        """5 relu(x) + x^2, with its backward scaled by `slope_scale`."""
        data = 5.0 * np.maximum(x.data, 0.0) + x.data * x.data

        def bw(g, acc):
            acc(x, slope_scale * (5.0 * (x.data > 0) + 2.0 * x.data) * g)

        return _node(data, (x,), bw)

    def test_kink_inside_quarter_radius_passes(self):
        # the kink at 0 lies 1e-4 from the probe, inside the h/4 = 2.5e-4 window
        x = Tensor(np.full((1, 1, 1, 1), 1e-4), requires_grad=True)
        errs = check_gradients(lambda: tsum(self.kinked(x)), [("x", x)])
        assert errs["x"] < 1e-6

    def test_wrong_backward_beside_kink_detected(self):
        x = Tensor(np.full((1, 1, 1, 1), 1e-4), requires_grad=True)
        errs = check_gradients(lambda: tsum(self.kinked(x, slope_scale=1.01)), [("x", x)])
        assert errs["x"] > 5e-3

    def test_tape_on_first_evaluation_only(self):
        x = Tensor(np.random.default_rng(2).uniform(-1, 1, (1, 2, 2, 2)), requires_grad=True)
        losses = []

        def loss_fn():
            losses.append(tsum(square(x)))
            return losses[-1]

        check_gradients(loss_fn, [("x", x)])
        assert len(losses) > 1 and losses[0].requires_grad
        assert not any(loss.requires_grad for loss in losses[1:])

    def test_non_finite_gradient_fails(self):
        x = Tensor(np.random.default_rng(3).uniform(-1, 1, (1, 1, 2, 2)), requires_grad=True)

        def nan_grad(t):
            return _node(t.data * 1.0, (t,), lambda g, acc: acc(t, g * np.nan))

        errs = check_gradients(lambda: tsum(square(nan_grad(x))), [("x", x)])
        assert errs["x"] == np.inf

    def test_float32_rejected(self):
        x = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError, match="float64"):
            check_gradients(lambda: tsum(x), [("x", x)])

    def test_relative_error_floor(self):
        assert relative_error(0.0, 1e-9) < 1e-3  # noise near zero is not a failure
        assert relative_error(1.0, 2.0) == pytest.approx(0.5)


class TestRunners:
    def test_block_runner_passes(self):
        errs = check_block(seed=1, samples_per_param=2)
        assert errs and max(errs.values()) < 1e-3

    def test_unknown_module_rejected(self):
        with pytest.raises(ValueError, match="unknown gradcheck module"):
            run_checks("decoder")

    def test_same_seed_same_errors(self):
        a = check_block(seed=2, samples_per_param=1)
        b = check_block(seed=2, samples_per_param=1)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 3])
    def test_block_rows_equal_one_check_of_the_whole_block(self, seed):
        """Splitting the block into four cached steps, each norm ending one, changes no probe and no float
        of its rows."""
        rng = np.random.default_rng(seed)
        blk = Block(make_stage_spec(3, 8), "mvn", mlp_ratio=2, use_res_scale=True, drop_prob=0.0, rng=rng)
        for _, p in blk.cast_(np.float64).named_parameters():
            p.tensor.data = rng.normal(0.0, 0.3, p.tensor.shape)
        x = Tensor(rng.uniform(-1.0, 1.0, (2, 8, 5, 5)), requires_grad=True)
        named = [("x", x)] + [(n, p.tensor) for n, p in blk.named_parameters()]
        whole = check_gradients(lambda: tsum(square(blk.forward(x, training=True))), named, rng=rng)
        split = check_block(seed=seed)
        assert list(split) == list(whole)
        assert [v.hex() for v in split.values()] == [v.hex() for v in whole.values()]


def micro_model(seed, res_scale_stages=model_mod.RES_SCALE_STAGES):
    """A float64 micro model (4 classes), its res-scaled stages as given."""
    saved = model_mod.RES_SCALE_STAGES
    model_mod.RES_SCALE_STAGES = res_scale_stages
    try:
        model = build_model(model_config("micro", num_classes=4), seed=seed)
    finally:
        model_mod.RES_SCALE_STAGES = saved
    return model.cast_(np.float64)


class TestSuffixLoss:
    """Re-running the micro model from a step's cached input changes no float."""

    @pytest.fixture(scope="class")
    def micro(self):
        rng = np.random.default_rng(11)
        model = micro_model(11)
        x = Tensor(rng.uniform(0.0, 1.0, (2, 3, 32, 32)))
        targets = np.array([0, 1])
        loss = suffix_loss(model, x, targets)
        full = ce_label_smoothing(model.forward(x, training=True), targets, 0.1)
        backward(full)
        grads = {id(p.tensor): p.tensor.grad for _, p in model.named_parameters()}
        assert all(g is not None for g in grads.values())
        return model, loss, full, grads

    def test_loss_equals_full_forward_from_every_step(self, micro):
        model, loss, full, _ = micro
        for start in range(len(model.steps) + 1):
            assert np.array_equal(loss(start).data, full.data), start

    def test_step_gradients_equal_full_tape(self, micro):
        model, loss, _, grads = micro
        steps = _training(model.steps)
        in_steps = {id(t) for _, params in steps for t in params}
        head = [p.tensor for _, p in model.named_parameters() if id(p.tensor) not in in_steps]
        assert head
        for start, params in enumerate([params for _, params in steps] + [head]):
            model.zero_grad()
            backward(loss(start))
            for t in params:
                assert np.array_equal(t.grad, grads[id(t)]), start

    def test_targets_built_once(self, monkeypatch):
        built = []
        real = gradcheck.smoothed_targets

        def counted(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(gradcheck, "smoothed_targets", counted)
        model = micro_model(12)
        loss = suffix_loss(model, Tensor(np.random.default_rng(12).uniform(0.0, 1.0, (2, 3, 32, 32))), [0, 1])
        with grad_enabled(False):
            values = [loss(start).item() for start in (0, 3, 0, len(model.steps))]
        assert len(built) == 1
        assert values[0] == values[2]


def modules(module):
    """`module` and every module under it."""
    yield module
    for child in module._children.values():
        yield from modules(child)


def all_finite(state):
    """Whether every entry of a step's state, a tensor or a pair of them, is finite."""
    return all(np.isfinite(t.data).all() for t in (state if isinstance(state, tuple) else (state,)))


CONFIGS = [(p, n, a) for p in PRESETS for n in NORM_KINDS for a in (None, *ABLATION_MODES)]


@pytest.mark.parametrize("res_scale_stages", [model_mod.RES_SCALE_STAGES, ()], ids=["res_scaled", "plain"])
class TestStepOwnership:
    """Each parameter is owned by the first step that reads it, and by no other."""

    @pytest.mark.parametrize("preset,norm,ablation", CONFIGS, ids=[f"{p}-{n}-{a or 'none'}" for p, n, a in CONFIGS])
    def test_every_parameter_in_exactly_one_step_or_the_head(self, res_scale_stages, preset, norm, ablation,
                                                             monkeypatch):
        monkeypatch.setattr(model_mod, "RES_SCALE_STAGES", res_scale_stages)
        model = MVFormer(model_config(preset, block_norm=norm, ablation=ablation), None)  # weightless
        steps = _training(model.steps)
        owned = [id(t) for _, params in steps for t in params]
        assert len(owned) == len(set(owned))
        head = {id(p.tensor) for n, p in model.named_parameters() if n.startswith("head_")}
        assert set(owned) | head == {id(p.tensor) for _, p in model.named_parameters()}
        assert not set(owned) & head
        has_scales = any("res_scale" in n for n, _ in model.named_parameters())
        assert has_scales == bool(res_scale_stages)
        norm_of = {id(p.tensor): norm for norm in modules(model) if isinstance(norm, (PlainNorm, MultiViewNorm))
                   for _, p in norm.named_parameters()}
        for _, params in steps:  # every norm ends a step: one that owns a norm's parameters owns nothing else
            if any(id(t) in norm_of for t in params):
                assert len({norm_of.get(id(t)) for t in params}) == 1

    def test_a_nan_parameter_first_shows_in_its_owner(self, res_scale_stages):
        model = micro_model(14, res_scale_stages)
        steps = _training(model.steps)
        x = Tensor(np.random.default_rng(14).uniform(0.0, 1.0, (2, 3, 32, 32)))
        owner = {id(t): k for k, (_, params) in enumerate(steps) for t in params}
        for name, p in model.named_parameters():
            t = p.tensor
            saved = t.data
            t.data = np.full_like(saved, np.nan)
            stop = owner.get(id(t), len(steps))
            try:
                with grad_enabled(False):
                    y = x  # the input of steps[k], a tensor or a pair: finite up to the owner's
                    for k, (step, _) in enumerate(steps[:stop]):
                        y = step(y)
                        assert all_finite(y), (name, k)
                    out = steps[stop][0](y) if stop < len(steps) else model.head(y, training=True)
                assert not all_finite(out), name
            finally:
                t.data = saved


class TestDetection:
    """A wrong backward rule past a cached norm still fails the check."""

    def test_star_relu_defect_in_the_mixer_caught(self, monkeypatch):
        real = mixer_mod.star_relu

        def bad_star_relu(x, s, b):  # x's gradient scaled by 1.5
            return real(_node(x.data, (x,), lambda g, acc: acc(x, 1.5 * g)), s, b)

        monkeypatch.setattr(mixer_mod, "star_relu", bad_star_relu)
        block = check_block(seed=0)
        assert max(err for n, err in block.items() if n.startswith("mixer.")) > DEFAULT_TOLERANCE
        model = check_model(seed=0)
        assert max(err for n, err in model.items() if ".mixer." in n) > DEFAULT_TOLERANCE
