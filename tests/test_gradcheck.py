"""The checker itself: calibration, guards, and detection power."""

import numpy as np
import pytest

from mvformer.gradcheck import check_block, check_gradients, relative_error, run_checks, suffix_loss
from mvformer.model import build_model, model_config
from mvformer.tensor import Tensor, _node, backward, square, tsum
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


class TestSuffixLoss:
    """Re-running the micro model from a layer's cached input changes no float."""

    @pytest.fixture(scope="class")
    def micro(self):
        rng = np.random.default_rng(11)
        model = build_model(model_config("micro", num_classes=4), seed=11).cast_(np.float64)
        x = Tensor(rng.uniform(0.0, 1.0, (2, 3, 32, 32)))
        targets = np.array([0, 1])
        loss = suffix_loss(model, x, targets)
        full = ce_label_smoothing(model.forward(x, training=True), targets, 0.1)
        backward(full)
        grads = {id(p.tensor): p.tensor.grad for _, p in model.named_parameters()}
        assert all(g is not None for g in grads.values())
        return model, loss, full, grads

    def test_loss_equals_full_forward_from_every_layer(self, micro):
        model, loss, full, _ = micro
        for start in range(len(model.layers) + 1):
            assert np.array_equal(loss(start).data, full.data), start

    def test_layer_gradients_equal_full_tape(self, micro):
        model, loss, _, grads = micro
        in_layers = {id(p.tensor) for layer in model.layers for _, p in layer.named_parameters()}
        head = [p for _, p in model.named_parameters() if id(p.tensor) not in in_layers]
        for start, layer in enumerate(model.layers + [None]):
            params = head if layer is None else [p for _, p in layer.named_parameters()]
            model.zero_grad()
            backward(loss(start))
            for p in params:
                assert np.array_equal(p.tensor.grad, grads[id(p.tensor)]), start
