"""Normalization tests: closed-form two-point cases, moments, stats oracles, fusion."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvformer.norm import DegenerateInputError, MultiViewNorm, PlainNorm, make_norm, normalize, variance
from mvformer import norm, tensor
from mvformer.tensor import ShapeError, Tensor, add, backward, grad_enabled, sqrt, tsum, square
from oracles import (
    VIEW_KIND,
    apply_affine,
    div,
    identity_affine,
    max_rel_err,
    moments,
    moments_oracle,
    mul,
    mvn_oracle,
    numeric_grad,
    packed_layout,
    standardize_oracle,
    sub,
    ulp_err,
    view_stats,
)

EPS = 1e-5
TWO_POINT = 1.0 / np.sqrt(1.0 + EPS)  # normalized value of {0, 2} data
# the fused norm body is not bitwise the unfused ops: bounds in ulp of the output's largest magnitude
VIEW_ULPS = 8
MVN_ULPS = 16


def standardize(x, axes, eps):
    """The view over `axes`, unguarded and unweighted, through the norm body's nodes: ``(y, mu, var)``."""
    kind = VIEW_KIND[axes]
    var, m = variance(x, packed_layout((kind,), x.shape), eps)
    y = normalize(x, m, sqrt(add(var, eps)), [None], *identity_affine(x))
    return (y, *view_stats(m, kind, x.shape))


def channel(values):
    return Tensor(np.asarray(values, dtype=np.float32).reshape(1, -1, 1, 1))


def bn_state(c):
    return PlainNorm(c, "bn")


def plain(kind, x):
    """`x` through a fresh training-mode `PlainNorm` of `kind` at its initial affine (gamma = 1, beta = 0)."""
    return PlainNorm(x.shape[1], kind).cast_(x.dtype).forward(x, training=True)


def op_nodes(out):
    """Grad-requiring tape nodes reachable from `out` that have parents (the recorded ops)."""
    seen, stack, ops = set(), [out], []
    while stack:
        t = stack.pop()
        if id(t) in seen or not t.requires_grad:
            continue
        seen.add(id(t))
        if t._parents:
            ops.append(t)
        stack.extend(t._parents)
    return ops


class TestMoments:
    def test_constant(self):
        x = Tensor(np.full((2, 3, 4, 4), 5.0, dtype=np.float32))
        mu, var = moments(x, (0, 2, 3))
        assert np.allclose(mu.data, 5.0)
        assert np.allclose(var.data, 0.0)

    def test_two_point(self):
        data = np.zeros((2, 1, 1, 1), dtype=np.float32)
        data[1] = 2.0
        mu, var = moments(Tensor(data), (0, 2, 3))
        assert mu.data.reshape(()) == 1.0
        assert var.data.reshape(()) == 1.0

    @pytest.mark.parametrize("axes", [(0, 2, 3), (1,), (2, 3), (0, 1, 2, 3)])
    def test_against_two_pass_oracle(self, axes):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 5, 4, 6))
        mu, var = moments(Tensor(x.astype(np.float32)), axes)
        mu_o, var_o = moments_oracle(x, axes)
        np.testing.assert_allclose(mu.data, mu_o, rtol=1e-6, atol=1e-6)
        np.testing.assert_allclose(var.data, var_o, rtol=1e-6, atol=1e-6)

    def test_empty_axes_rejected(self):
        with pytest.raises(ShapeError, match="at least one"):
            moments(Tensor(np.ones((1, 2, 3, 3))), ())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_variance_nonnegative_zero_iff_constant(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        if seed % 3 == 0:
            x[:] = x.reshape(-1)[0]  # force a constant tensor sometimes
        _, var = moments(Tensor(x), (0, 2, 3))
        assert (var.data >= 0).all()
        const_slices = np.array(
            [np.ptp(x[:, c]) == 0 for c in range(x.shape[1])]
        ).reshape(var.shape)
        assert np.array_equal(var.data == 0, const_slices)


class TestVarianceNormalize:
    AXES = [(0, 2, 3), (1,), (2, 3)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axes", AXES)
    def test_forward_bitwise_equals_composite(self, axes, dtype):
        """Per-map and per-pixel moments are the composite's bitwise; the per-channel
        ones (combined from the per-map moments) and the normalized values within 8 ulp."""
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 5, 3, 6)).astype(dtype))
        mu_t, var_t = moments(x, axes)
        kind = VIEW_KIND[axes]
        var, m = variance(x, packed_layout((kind,), x.shape), 1e-5)
        mu_v, var_v = view_stats(m, kind, x.shape)
        assert np.array_equal(var.data.reshape(var_t.shape), var_v)
        if axes == (0, 2, 3):
            assert ulp_err(mu_v, mu_t.data) <= 8 and ulp_err(var_v, var_t.data) <= 8
        else:
            assert np.array_equal(mu_v, mu_t.data) and np.array_equal(var_v, var_t.data)
        std = sqrt(add(var, 1e-5))
        y = normalize(x, m, std, [None], *identity_affine(x))
        assert y.dtype == dtype
        assert ulp_err(y.data, div(sub(x, mu_t), sqrt(add(var_t, 1e-5))).data) <= 8

    @pytest.mark.parametrize("axes", AXES)
    def test_variance_matches_oracle(self, axes):
        x = np.random.default_rng(22).normal(-1.0, 2.0, size=(3, 5, 4, 6))
        kind = VIEW_KIND[axes]
        _, m = variance(Tensor(x), packed_layout((kind,), x.shape), 1e-5)
        mu_v, var_v = view_stats(m, kind, x.shape)
        mu_o, var_o = moments_oracle(x, axes)
        np.testing.assert_allclose(mu_v, mu_o, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(var_v, var_o, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("axes", AXES)
    def test_grads_match_central_differences(self, axes):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(3, 4, 2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=x.shape))
        at = packed_layout((VIEW_KIND[axes],), x.shape)
        wv = Tensor(rng.normal(size=(1, 1, 1, variance(x, at, 1e-5)[0].size)))

        def norm_loss():  # the whole stats path: variance, sqrt(var + eps), normalize
            var, m = variance(x, at, 1e-5)
            return tsum(mul(normalize(x, m, sqrt(add(var, 1e-5)), [None], *identity_affine(x)), w))

        def var_loss():
            return tsum(mul(variance(x, at, 1e-5)[0], wv))

        for loss in (norm_loss, var_loss):
            x.grad = None
            backward(loss())
            num = numeric_grad(lambda: loss().item(), x.data)
            assert max_rel_err(x.grad, num) < 1e-3

    def test_tape_links(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 2, 2), requires_grad=True)
        var, m = variance(x, packed_layout(("ln",), x.shape), 1e-5)
        std = sqrt(add(var, 1e-5))
        gamma, beta = identity_affine(x)
        y = normalize(x, m, std, [None], gamma, beta)
        assert isinstance(m.stats["ln"][0], np.ndarray) and var._parents == (x,)
        assert y._parents == (x, std, gamma, beta)

    @pytest.mark.parametrize("shape,axes", [((2, 3, 0, 4), (0, 2, 3)), ((0, 3, 2, 2), (0, 2, 3)), ((2, 0, 2, 2), (1,))])
    def test_empty_extent_rejected(self, shape, axes):
        """The norm layer, `variance`'s only caller, rejects a view over no elements before
        computing anything; in eval mode the error names the first empty view's axes."""
        message = f"variance over empty extent (axes {axes} of shape {shape})"
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            MultiViewNorm(shape[1]).forward(Tensor(np.zeros(shape)), training=False)


class TestStandardize:
    AXES = [(0, 2, 3), (1,), (2, 3)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axes", AXES)
    def test_forward_bitwise_equals_composite(self, axes, dtype):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 5, 3, 6)).astype(dtype))
        mu, var = moments(x, axes)
        composite = div(sub(x, mu), sqrt(add(var, EPS)))
        y, _, _ = standardize(x, axes, EPS)
        assert y.dtype == dtype
        assert ulp_err(y.data, composite.data) <= VIEW_ULPS

    @pytest.mark.parametrize("axes", AXES)
    def test_matches_oracles(self, axes):
        x = np.random.default_rng(22).normal(-1.0, 2.0, size=(3, 5, 4, 6))
        y, mu, var = standardize(Tensor(x), axes, EPS)
        mu_o, var_o = moments_oracle(x, axes)
        np.testing.assert_allclose(mu, mu_o, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(var, var_o, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(y.data, standardize_oracle(x, axes, EPS), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "shape,axes",
        [((3, 4, 2, 3), (0, 2, 3)), ((3, 4, 2, 3), (1,)), ((3, 4, 2, 3), (2, 3)), ((3, 4, 1, 1), (2, 3))],
    )
    def test_x_grads_match_central_differences(self, shape, axes):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=shape))

        def loss():
            return tsum(mul(standardize(x, axes, EPS)[0], w))

        backward(loss())
        num = numeric_grad(lambda: loss().item(), x.data)
        assert max_rel_err(x.grad, num) < 1e-3
        if shape[2] * shape[3] == 1 and axes == (2, 3):  # centred numerator exactly zero
            assert (x.grad == 0).all() and (num == 0).all()

    def test_wrong_sqrt_gradient_shows_in_x_grad(self, monkeypatch):
        """The std path runs through this module's `sqrt`, so a broken one is visible."""
        rng = np.random.default_rng(24)
        data, w = rng.normal(size=(2, 4, 3, 3)), Tensor(rng.normal(size=(2, 4, 3, 3)))

        def x_grad():
            x = Tensor(data.copy(), requires_grad=True)
            backward(tsum(mul(MultiViewNorm(4).cast_(np.float64).forward(x, training=True), w)))
            return x.grad

        right = x_grad()

        def doubled_sqrt(v):
            out = tensor.sqrt(v)
            real = out._backward
            out._backward = lambda g, acc: real(2.0 * g, acc)
            return out

        monkeypatch.setattr(norm, "sqrt", doubled_sqrt)
        assert max_rel_err(x_grad(), right) > 0.1


class TestBatchNorm:
    def test_constant_input_near_zero(self):
        x = Tensor(np.full((2, 3, 4, 4), 7.0, dtype=np.float32))
        out = bn_state(3).forward(x, training=True)
        assert np.abs(out.data).max() < 1e-2

    def test_two_point_closed_form(self):
        data = np.zeros((2, 1, 1, 2), dtype=np.float32)
        data[..., 1] = 2.0
        out = bn_state(1).forward(Tensor(data), training=True)
        np.testing.assert_allclose(out.data[..., 0], -TWO_POINT, rtol=1e-6)
        np.testing.assert_allclose(out.data[..., 1], TWO_POINT, rtol=1e-6)

    def test_output_stats_oracle(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(2.0, 3.0, size=(8, 16, 16, 16)).astype(np.float32))
        out = bn_state(16).forward(x, training=True)
        mu, var = moments(out, (0, 2, 3))
        assert np.abs(mu.data).max() < 1e-5
        assert np.abs(var.data - 1.0).max() < 1e-3

    def test_running_stats_update_rule(self):
        st_ = bn_state(2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))  # population variance
        st_.forward(Tensor(x), training=True)
        np.testing.assert_allclose(st_.run_mean, 0.1 * mu, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(st_.run_var, 0.9 * 1.0 + 0.1 * var, rtol=1e-5)

    @pytest.mark.parametrize("kind", ["bn", "mvn"])
    def test_running_stats_update_in_place(self, kind):
        layer = make_norm(kind, 2)
        run_mean, run_var = layer.run_mean, layer.run_var
        layer.forward(Tensor(np.arange(16, dtype=np.float32).reshape(2, 2, 2, 2)), training=True)
        assert layer.run_mean is run_mean and layer.run_var is run_var
        assert run_mean.any() and not np.array_equal(run_var, np.ones(2))

    @pytest.mark.parametrize("kind", ["bn", "mvn"])
    def test_float64_cast_keeps_the_buffers_updating(self, kind):
        layer = make_norm(kind, 2).cast_(np.float64)
        layer.forward(Tensor(np.arange(16, dtype=np.float64).reshape(2, 2, 2, 2)), training=True)
        buffers = dict(layer.named_buffers())
        assert all(buf.dtype == np.float64 for buf in buffers.values())
        assert buffers["run_mean"] is layer.run_mean and buffers["run_var"] is layer.run_var
        assert buffers["run_mean"].any() and not np.array_equal(buffers["run_var"], np.ones(2))

    def test_inference_uses_running_stats(self):
        st_ = bn_state(1)
        st_.run_mean[:] = 2.0
        st_.run_var[:] = 4.0
        x = Tensor(np.full((1, 1, 1, 2), 4.0, dtype=np.float32))
        out = st_.forward(x, training=False)
        np.testing.assert_allclose(out.data, (4.0 - 2.0) / np.sqrt(4.0 + EPS), rtol=1e-6)

    def test_inference_is_per_channel_affine(self):
        # frozen BN commutes with input scaling the way an affine map does:
        # f(2x) - f(0) == 2 * (f(x) - f(0))
        st_ = bn_state(3)
        st_.run_mean[:] = [0.5, -1.0, 2.0]
        st_.run_var[:] = [1.0, 0.25, 9.0]
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        f = lambda arr: st_.forward(Tensor(arr), training=False).data
        zero = f(np.zeros_like(x))
        np.testing.assert_allclose(f(2 * x) - zero, 2 * (f(x) - zero), rtol=1e-4, atol=1e-5)

    def test_degenerate_batch_rejected(self):
        with pytest.raises(DegenerateInputError, match="n\\*h\\*w"):
            bn_state(3).forward(Tensor(np.ones((1, 3, 1, 1))), training=True)


class TestLayerNorm:
    def test_two_point_closed_form(self):
        data = np.zeros((1, 2, 1, 1), dtype=np.float32)
        data[0, 1] = 2.0
        out = plain("ln", Tensor(data))
        np.testing.assert_allclose(
            out.data.reshape(2), [-TWO_POINT, TWO_POINT], rtol=1e-6
        )

    def test_channel_constant_is_zero(self):
        rng = np.random.default_rng(3)
        plane = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
        x = Tensor(np.repeat(plane, 5, axis=1))
        assert np.abs(plain("ln", x).data).max() < 1e-2

    def test_output_stats_oracle(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(-1.0, 2.0, size=(8, 16, 16, 16)).astype(np.float32))
        mu, var = moments(plain("ln", x), (1,))
        assert np.abs(mu.data).max() < 1e-5
        assert np.abs(var.data - 1.0).max() < 1e-3

    def test_single_channel_rejected(self):
        with pytest.raises(DegenerateInputError, match="C >= 2"):
            plain("ln", Tensor(np.ones((1, 1, 4, 4))))


class TestInstanceNorm:
    def test_spatially_constant_is_zero(self):
        x = Tensor(np.broadcast_to(np.arange(6, dtype=np.float32).reshape(2, 3, 1, 1), (2, 3, 4, 4)).copy())
        assert np.abs(plain("in", x).data).max() < 1e-2

    def test_half_and_half_closed_form(self):
        data = np.zeros((1, 1, 2, 2), dtype=np.float32)
        data[0, 0, 1] = 2.0
        out = plain("in", Tensor(data)).data
        np.testing.assert_allclose(out[0, 0, 0], -TWO_POINT, rtol=1e-6)
        np.testing.assert_allclose(out[0, 0, 1], TWO_POINT, rtol=1e-6)

    def test_output_stats_oracle(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(0.5, 1.5, size=(8, 16, 16, 16)).astype(np.float32))
        mu, var = moments(plain("in", x), (2, 3))
        assert np.abs(mu.data).max() < 1e-5
        assert np.abs(var.data - 1.0).max() < 1e-3

    def test_single_pixel_rejected(self):
        with pytest.raises(DegenerateInputError, match="h\\*w"):
            plain("in", Tensor(np.ones((2, 3, 1, 1))))


class TestApplyAffine:
    def test_identity(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 2, 2)).astype(np.float32))
        out = apply_affine(x, channel(np.ones(3)), channel(np.zeros(3)))
        assert np.array_equal(out.data, x.data)

    def test_scale_shift_on_zeros(self):
        x = Tensor(np.zeros((1, 2, 2, 2), dtype=np.float32))
        out = apply_affine(x, channel([2.0, 2.0]), channel([1.0, 1.0]))
        assert (out.data == 1.0).all()

    def test_matches_broadcast_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 4, 3, 3)).astype(np.float32)
        g = rng.normal(size=4).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        out = apply_affine(Tensor(x), channel(g), channel(b))
        want = x * g.reshape(1, 4, 1, 1) + b.reshape(1, 4, 1, 1)
        assert np.array_equal(out.data, want)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            apply_affine(
                Tensor(np.ones((1, 3, 1, 2))),
                channel(np.ones(2)),
                channel(np.zeros(2)),
            )


def random_plain(kind, c, dtype, rng):
    """A plain norm layer with random affine and, for bn, random running statistics."""
    layer = PlainNorm(c, kind).cast_(dtype)
    for name in ("gamma", "beta"):
        getattr(layer, name).data = rng.normal(size=(1, c, 1, 1)).astype(dtype)
    if kind == "bn":
        layer.run_mean[:] = rng.normal(size=c)
        layer.run_var[:] = rng.uniform(0.5, 2.0, size=c)
    return layer


def plain_composite(layer, x, training):
    """The layer's kind at its initial affine, on the layer's running buffers, then the unfused oracle affine."""
    standard = PlainNorm(layer.channels, layer.kind).cast_(x.dtype)
    standard._buffers = layer._buffers  # a bn view reads and folds into the layer's own buffers
    return apply_affine(standard.forward(x, training), layer.gamma, layer.beta)


class TestPlainNorm:
    KINDS = ("bn", "ln", "in")

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_forward_bitwise_equals_composite(self, kind, dtype, training):
        data = np.random.default_rng(31).normal(1.0, 2.0, size=(3, 5, 4, 6)).astype(dtype)
        layer, twin = (random_plain(kind, 5, dtype, np.random.default_rng(32)) for _ in range(2))
        got = layer.forward(Tensor(data, requires_grad=True), training=training)
        want = plain_composite(twin, Tensor(data, requires_grad=True), training)
        assert got.dtype == dtype and ulp_err(got.data, want.data) <= VIEW_ULPS
        for (name, a), (_, b) in zip(layer.named_buffers(), twin.named_buffers()):
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    def test_grads_match_composite_tape(self, kind, training):
        rng = np.random.default_rng(33)
        layer = random_plain(kind, 5, np.float64, rng)
        data, w = rng.normal(size=(3, 5, 4, 6)), Tensor(rng.normal(size=(3, 5, 4, 6)))

        def grads(forward):
            layer.zero_grad()
            x = Tensor(data.copy(), requires_grad=True)
            backward(tsum(mul(forward(x), w)))
            return x.grad, layer.gamma.grad, layer.beta.grad

        got = grads(lambda x: layer.forward(x, training=training))
        want = grads(lambda x: plain_composite(layer, x, training))
        for name, a, b in zip(("x", "gamma", "beta"), got, want):
            assert max_rel_err(a, b, floor=1e-12) < 1e-9, name

    @pytest.mark.parametrize("kind", KINDS + ("mvn",))
    def test_training_tape_has_four_op_nodes(self, kind, monkeypatch):
        calls = []
        for name in ("variance", "add", "sqrt", "normalize"):
            real = getattr(norm, name)
            monkeypatch.setattr(norm, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
        layer = make_norm(kind, 4)
        x = Tensor(np.random.default_rng(34).normal(size=(2, 4, 3, 3)).astype(np.float32), requires_grad=True)
        y = layer.forward(x, training=True)
        ops = op_nodes(y)
        # one variance for every view, add eps, sqrt, and one normalize carrying the weights and affine
        assert len(ops) == 4
        assert sum(t._parents[0] is x for t in ops) == 2  # variance and normalize: the only reads of x
        assert calls == ["variance", "add", "sqrt", "normalize"]
        std = y._parents[1]
        var = std._parents[0]._parents[0]  # through add
        assert y._parents[0] is x and var._parents == (x,)
        calls.clear()
        with grad_enabled(False):  # the same body links none of them
            free = layer.forward(x, training=True)
        assert calls == ["variance", "add", "sqrt", "normalize"]
        assert free._parents == () and free._backward is None and not free.requires_grad

    @pytest.mark.parametrize("kind", KINDS + ("mvn",))
    def test_every_node_goes_through_tensor_node(self, kind, monkeypatch):
        """A wrapper over ``tensor._node`` sees all four nodes of a taped call, in order:
        variance, add, sqrt and normalize; the one place to observe every op."""
        made, real = [], tensor._node
        monkeypatch.setattr(tensor, "_node", lambda *a: made.append(real(*a)) or made[-1])
        x = Tensor(np.random.default_rng(36).normal(size=(2, 4, 3, 3)).astype(np.float32), requires_grad=True)
        y = make_norm(kind, 4).forward(x, training=True)
        std = y._parents[1]
        added = std._parents[0]
        var = added._parents[0]
        assert len(made) == 4 and all(a is b for a, b in zip(made, (var, added, std, y)))

    @pytest.mark.parametrize("kind", KINDS + ("mvn",))
    @pytest.mark.parametrize("shape", [(2, 4, 3, 3), (5, 4, 1, 7)])
    def test_plan_is_the_packed_layout_looked_up_once(self, kind, shape):
        """``_check`` returns the read-only layout of the packed variances, one lookup per call."""
        layer = make_norm(kind, 4)
        x = Tensor(np.random.default_rng(37).normal(size=shape).astype(np.float32))
        plan = norm._check(4, layer._kinds, shape, True)
        assert dict(plan) == packed_layout(layer._kinds, shape)
        with pytest.raises(TypeError):
            plan["bn"] = slice(0, 1)
        before = norm._check.cache_info()
        layer.forward(x, training=True)
        after = norm._check.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    @pytest.mark.parametrize("kind", KINDS + ("mvn",))
    def test_eval_forward_records_no_tape(self, kind):
        """The tape-free path writes over its own buffers and gives the taped path's bits."""
        rng = np.random.default_rng(35)
        layer = make_norm(kind, 4)
        for name, t in layer.named_parameters():
            t.tensor.data = rng.normal(size=t.data.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(2, 4, 3, 3)).astype(np.float32), requires_grad=True)
        taped = layer.forward(x, training=False)
        with grad_enabled(False):
            free = layer.forward(x, training=False)
        assert taped.requires_grad and not free.requires_grad
        assert free._parents == () and free._backward is None
        assert np.array_equal(free.data, taped.data)

    @pytest.mark.parametrize(
        "make,params,buffers",
        [
            (lambda: MultiViewNorm(4), ["alpha_bn", "alpha_ln", "alpha_in", "gamma", "beta"], ["run_mean", "run_var"]),
            (lambda: PlainNorm(4, "bn"), ["gamma", "beta"], ["run_mean", "run_var"]),
            (lambda: PlainNorm(4, "ln"), ["gamma", "beta"], []),
            (lambda: PlainNorm(4, "in"), ["gamma", "beta"], []),
        ],
        ids=["mvn", "bn", "ln", "in"],
    )
    def test_registered_names_in_order(self, make, params, buffers):
        """Checkpoints key on these names, in this order."""
        layer = make()
        assert [name for name, _ in layer.named_parameters()] == params
        assert [name for name, _ in layer.named_buffers()] == buffers

    @pytest.mark.parametrize(
        "kind,shape,match",
        [("bn", (1, 3, 1, 1), "n\\*h\\*w"), ("ln", (2, 1, 3, 3), "C >= 2"), ("in", (2, 3, 1, 1), "h\\*w")],
    )
    def test_degenerate_extent_rejected(self, kind, shape, match):
        layer = PlainNorm(shape[1], kind)
        with pytest.raises(DegenerateInputError, match=match):
            layer.forward(Tensor(np.ones(shape, dtype=np.float32)), training=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown norm kind"):
            PlainNorm(4, "gn")

    @pytest.mark.parametrize(
        "make,shape",
        [
            (lambda: PlainNorm(3, "bn"), (1, 3, 1, 1)),
            (lambda: PlainNorm(1, "ln"), (2, 1, 3, 3)),
            (lambda: PlainNorm(3, "in"), (2, 3, 1, 1)),
            (lambda: MultiViewNorm(1), (2, 1, 3, 3)),
            (lambda: MultiViewNorm(4), (2, 3, 2, 2)),
        ],
        ids=["bn", "ln", "in", "mvn-ln", "mvn-channels"],
    )
    def test_bad_input_raises_alike_every_call(self, make, shape):
        """The checks are cached per signature, their failures are not."""
        layer = make()
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as err:
                layer.forward(Tensor(np.ones(shape, dtype=np.float32)), training=True)
            messages.append((type(err.value), str(err.value)))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "kind,channels,shape,training,error,match",
        [
            ("mvn", 4, (2, 3, 2, 2), True, ValueError, "built for 4 channels, input has 3"),
            ("bn", 4, (1, 4, 1, 1), True, DegenerateInputError, "n\\*h\\*w"),
            ("mvn", 4, (1, 4, 1, 1), True, DegenerateInputError, "n\\*h\\*w"),
            ("in", 4, (2, 4, 1, 1), True, DegenerateInputError, "h\\*w"),
            ("ln", 1, (2, 1, 3, 3), True, DegenerateInputError, "C >= 2"),
            ("mvn", 1, (2, 1, 3, 3), True, DegenerateInputError, "C >= 2"),
            ("mvn", 4, (0, 4, 2, 2), False, ShapeError, "empty extent"),
        ],
        ids=["channels", "bn-training", "mvn-bn-training", "plain-in", "plain-ln", "mvn-ln", "empty-extent"],
    )
    def test_rejected_call_changes_nothing(self, kind, channels, shape, training, error, match):
        """Every check runs before the statistics and the running-stat fold: a rejected call
        leaves the layer's parameters and buffers byte-identical."""
        layer = random_layer(kind, channels, np.float32, 61)

        def state():
            return [(name, p.data.tobytes()) for name, p in layer.named_parameters()] + [
                (name, a.tobytes()) for name, a in layer.named_buffers()
            ]

        before = state()
        with pytest.raises(error, match=match):
            layer.forward(Tensor(np.arange(np.prod(shape), dtype=np.float32).reshape(shape)), training=training)
        assert state() == before

    @pytest.mark.parametrize("make", [lambda: PlainNorm(3, "bn"), lambda: MultiViewNorm(3)], ids=["bn", "mvn"])
    def test_shape_accepted_in_eval_still_guarded_in_training(self, make):
        layer = make()
        x = Tensor(np.ones((1, 3, 1, 1), dtype=np.float32))
        layer.forward(x, training=False)
        with pytest.raises(DegenerateInputError, match="n\\*h\\*w"):
            layer.forward(x, training=True)


MVN_PARAMS = ("alpha_bn", "alpha_ln", "alpha_in", "gamma", "beta")


def random_mvn(c, dtype, rng):
    """An MVN layer with random weights, affine and running statistics."""
    layer = MultiViewNorm(c).cast_(dtype)
    for name in MVN_PARAMS:
        getattr(layer, name).data = rng.normal(size=(1, c, 1, 1)).astype(dtype)
    layer.run_mean[:] = rng.normal(size=c)
    layer.run_var[:] = rng.uniform(0.5, 2.0, size=c)
    return layer


class TestMultiViewNormOracle:
    SHAPES = [(3, 5, 4, 6), (4, 6, 1, 1)]  # on 1x1 maps the instance view contributes zero

    @pytest.mark.parametrize("tape", [True, False])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_forward_bitwise_equals_oracle(self, shape, dtype, training, tape):
        rng = np.random.default_rng(41)
        layer = random_mvn(shape[1], dtype, rng)
        x = Tensor(rng.normal(1.0, 2.0, size=shape).astype(dtype), requires_grad=True)
        want = mvn_oracle(layer, x, training).data
        with grad_enabled(tape):
            got = layer.forward(x, training=training)
        assert got.requires_grad == tape
        assert got.dtype == dtype and ulp_err(got.data, want) <= MVN_ULPS

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_grads_match_oracle_tape(self, shape, training):
        rng = np.random.default_rng(42)
        layer = random_mvn(shape[1], np.float64, rng)
        data, w = rng.normal(size=shape), Tensor(rng.normal(size=shape))

        def grads(forward):
            layer.zero_grad()
            x = Tensor(data.copy(), requires_grad=True)
            backward(tsum(mul(forward(x), w)))
            return [x.grad] + [getattr(layer, name).grad for name in MVN_PARAMS]

        got = grads(lambda x: layer.forward(x, training=training))
        want = grads(lambda x: mvn_oracle(layer, x, training))
        for name, a, b in zip(("x",) + MVN_PARAMS, got, want):
            assert max_rel_err(a, b, floor=1e-12) < 1e-9, name


class TestEdgeShapes:
    """Gradients where a view's statistics run over few elements, in float64."""

    @pytest.mark.parametrize(
        "kind,shape,training",
        [
            ("mvn", (4, 3, 1, 1), True),  # 1x1 maps: the instance view drops out
            ("mvn", (4, 3, 1, 1), False),
            ("mvn", (1, 3, 2, 3), True),  # n = 1: batch statistics over one image
            ("mvn", (1, 3, 2, 3), False),
            ("mvn", (3, 2, 2, 2), True),  # C = 2: layer statistics over two channels
            ("mvn", (3, 2, 2, 2), False),
            ("bn", (4, 3, 1, 1), True),
            ("bn", (1, 3, 1, 1), False),
            ("bn", (1, 2, 2, 3), True),
            ("ln", (4, 2, 1, 1), True),  # the head norm's shape
            ("ln", (1, 2, 2, 2), False),
            ("in", (1, 2, 1, 2), True),
        ],
    )
    def test_grads_match_central_differences(self, kind, shape, training):
        rng = np.random.default_rng(17)
        layer = make_norm(kind, shape[1]).cast_(np.float64)
        for _, p in layer.named_parameters():
            p.tensor.data = rng.normal(size=p.data.shape)
        if "run_var" in dict(layer.named_buffers()):
            layer.run_mean[:] = rng.normal(size=shape[1])
            layer.run_var[:] = rng.uniform(0.5, 2.0, size=shape[1])
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=shape))
        state = [a.copy() for _, a in layer.named_buffers()]

        def loss():
            for (_, buf), a in zip(layer.named_buffers(), state):
                buf[:] = a  # training mode folds every call into the running values
            return tsum(mul(layer.forward(x, training=training), w))

        backward(loss())
        for name, t in [("x", x)] + [(n, p.tensor) for n, p in layer.named_parameters()]:
            num = numeric_grad(lambda: loss().item(), t.data, h=1e-5)
            assert max_rel_err(t.grad, num, floor=1e-6) < 1e-4, name

    @pytest.mark.parametrize("training", [True, False])
    def test_instance_view_drops_out_exactly_on_1x1_maps(self, training):
        """On 1x1 maps the layer is bitwise the same layer with alpha_in = 0, gradients included."""
        rng = np.random.default_rng(18)
        data, w = rng.normal(size=(4, 6, 1, 1)).astype(np.float32), Tensor(rng.normal(size=(4, 6, 1, 1)).astype(np.float32))
        layer = random_mvn(6, np.float32, rng)

        def run(alpha_in):
            layer.alpha_in.data = alpha_in
            layer.zero_grad()
            x = Tensor(data.copy(), requires_grad=True)
            out = layer.forward(x, training=training)
            backward(tsum(mul(out, w)))
            return out.data, x.grad, layer.alpha_in.grad

        out, gx, g_in = run(rng.normal(size=(1, 6, 1, 1)).astype(np.float32))
        out0, gx0, _ = run(np.zeros((1, 6, 1, 1), np.float32))
        assert np.array_equal(out, out0) and np.array_equal(gx, gx0)
        assert (g_in == 0).all()


def one_hot_mvn(c, which):
    layer = MultiViewNorm(c)
    for name in ("alpha_bn", "alpha_ln", "alpha_in"):
        value = 1.0 if name == which else 0.0
        getattr(layer, name).data = np.full((1, c, 1, 1), value, dtype=np.float32)
    return layer


class TestMultiViewNorm:
    def test_one_hot_bn_bitwise(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 6, 5, 5)).astype(np.float32))
        layer = one_hot_mvn(6, "alpha_bn")
        want = plain("bn", x).data
        got = layer.forward(x, training=True).data
        assert np.array_equal(got, want)

    def test_one_hot_ln_bitwise(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(4, 6, 5, 5)).astype(np.float32))
        layer = one_hot_mvn(6, "alpha_ln")
        assert np.array_equal(layer.forward(x, training=True).data, plain("ln", x).data)

    def test_one_hot_in_bitwise(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(size=(4, 6, 5, 5)).astype(np.float32))
        layer = one_hot_mvn(6, "alpha_in")
        assert np.array_equal(layer.forward(x, training=True).data, plain("in", x).data)

    def test_ones_init_is_raw_sum_of_views(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 6, 5, 5)).astype(np.float32))
        layer = MultiViewNorm(6)
        got = layer.forward(x, training=True).data
        want = plain("bn", x).data + plain("ln", x).data + plain("in", x).data
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_linear_in_view_weights(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 4, 4, 4)).astype(np.float32))
        layer = MultiViewNorm(4)

        def run(a_bn, a_ln, a_in):
            layer.alpha_bn.data = np.full((1, 4, 1, 1), a_bn, dtype=np.float32)
            layer.alpha_ln.data = np.full((1, 4, 1, 1), a_ln, dtype=np.float32)
            layer.alpha_in.data = np.full((1, 4, 1, 1), a_in, dtype=np.float32)
            return layer.forward(x, training=True).data

        combined = run(0.5 + 0.2, -0.3 + 1.0, 0.1 + 0.4)
        parts = run(0.5, -0.3, 0.1) + run(0.2, 1.0, 0.4)
        np.testing.assert_allclose(combined, parts, rtol=1e-4, atol=1e-5)

    def test_alpha_gradients_match_finite_differences(self):
        rng = np.random.default_rng(13)
        layer = MultiViewNorm(4).cast_(np.float64)
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 3, 3)))

        def loss():
            return tsum(square(layer.forward(x, training=True)))

        backward(loss())
        for name in ("alpha_bn", "alpha_ln", "alpha_in", "gamma", "beta"):
            t = getattr(layer, name)
            analytic = t.grad
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-3
                up = loss().item()
                flat[i] = orig - 1e-3
                down = loss().item()
                flat[i] = orig
                num = (up - down) / 2e-3
                denom = max(abs(analytic.reshape(-1)[i]), abs(num), 1e-4)
                assert abs(analytic.reshape(-1)[i] - num) / denom < 1e-3, name

    def test_param_count_is_5c(self):
        assert MultiViewNorm(16).num_params() == 5 * 16
        assert PlainNorm(16, "ln").num_params() == 2 * 16

    def test_instance_view_vanishes_on_1x1_maps(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(4, 6, 1, 1)).astype(np.float32))
        layer = MultiViewNorm(6)
        out = layer.forward(x, training=True)
        assert np.isfinite(out.data).all()
        only_bn_ln = one_hot_mvn(6, "alpha_bn")
        only_bn_ln.alpha_ln.data = np.ones((1, 6, 1, 1), dtype=np.float32)
        np.testing.assert_allclose(
            out.data, only_bn_ln.forward(x, training=True).data, rtol=1e-6, atol=1e-6
        )

    def test_inference_gradients_match_finite_differences(self):
        """Frozen batch statistics are constants: x gets no mean fold through that view."""
        rng = np.random.default_rng(16)
        layer = random_mvn(4, np.float64, rng)
        x = Tensor(rng.uniform(-1, 1, size=(2, 4, 3, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=x.shape))

        def loss():
            return tsum(mul(layer.forward(x, training=False), w))

        backward(loss())
        for name in ("x",) + MVN_PARAMS:
            t = x if name == "x" else getattr(layer, name)
            assert max_rel_err(t.grad, numeric_grad(lambda: loss().item(), t.data, h=1e-5)) < 1e-6, name

    def test_single_channel_rejected_after_batch_view(self):
        """The layer view's guard, checked after the batch view's, still fires before the batch fold."""
        layer = MultiViewNorm(1)
        with pytest.raises(DegenerateInputError, match="C >= 2"):
            layer.forward(Tensor(np.arange(18, dtype=np.float32).reshape(2, 1, 3, 3)), training=True)
        assert np.array_equal(layer.run_mean, [0.0]) and np.array_equal(layer.run_var, [1.0])

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            MultiViewNorm(4).forward(Tensor(np.ones((1, 3, 2, 2))), training=True)

    def test_inference_freezes_bn_only(self):
        rng = np.random.default_rng(15)
        layer = MultiViewNorm(3)
        layer.forward(Tensor(rng.normal(size=(4, 3, 4, 4)).astype(np.float32)), training=True)
        frozen = dict(run_mean=layer.run_mean.copy(), run_var=layer.run_var.copy())
        x = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        out1 = layer.forward(x, training=False).data
        out2 = layer.forward(x, training=False).data
        assert np.array_equal(out1, out2)
        np.testing.assert_array_equal(layer.run_mean, frozen["run_mean"])
        # LN and IN stay input-dependent: a shifted input changes their views
        shifted = Tensor(x.data + rng.normal(size=x.shape).astype(np.float32))
        assert not np.allclose(layer.forward(shifted, training=False).data, out1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_outputs_finite_for_finite_inputs(self, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4)
        x = Tensor((rng.normal(size=(2, 4, 3, 3)) * scale).astype(np.float32))
        layer = MultiViewNorm(4)
        assert np.isfinite(layer.forward(x, training=True).data).all()


def random_layer(kind, c, dtype, seed):
    """A norm layer of any kind with random parameters and running statistics."""
    rng = np.random.default_rng(seed)
    return random_mvn(c, dtype, rng) if kind == "mvn" else random_plain(kind, c, dtype, rng)


# (kind, shape, training): the micro training maps, the gradient-check input and an eval call at n = 1;
# a plain instance norm rejects 1x1 maps
ONE_BODY_CALLS = [
    (kind, shape, training)
    for kind in ("mvn", "bn", "ln", "in")
    for shape, training in [
        (shape, training) for shape in ((64, 8, 8, 8), (64, 32, 2, 2), (64, 64, 1, 1), (2, 8, 5, 5)) for training in (True, False)
    ] + [((1, 8, 5, 5), False)]
    if kind != "in" or shape[2] * shape[3] > 1
]


class TestOneBody:
    """Taped and tape-free calls run one body: the same nodes, the same bits."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,shape,training", ONE_BODY_CALLS)
    def test_tape_free_output_is_the_taped_bits(self, kind, shape, training, dtype):
        taped_layer, free_layer = (random_layer(kind, shape[1], dtype, 51) for _ in range(2))
        data = np.random.default_rng(52).normal(0.5, 2.0, size=shape).astype(dtype)
        taped = taped_layer.forward(Tensor(data, requires_grad=True), training)
        with grad_enabled(False):
            free = free_layer.forward(Tensor(data, requires_grad=True), training)
        assert taped.requires_grad and not free.requires_grad
        assert free.data.dtype == taped.data.dtype == dtype
        assert free.data.tobytes() == taped.data.tobytes()
        for (name, a), (_, b) in zip(taped_layer.named_buffers(), free_layer.named_buffers()):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("shape", [(64, 8, 8, 8), (2, 8, 5, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["mvn", "bn"])
    def test_running_buffers_take_the_batch_moments(self, kind, dtype, shape):
        layer = make_norm(kind, shape[1]).cast_(dtype)
        x = np.random.default_rng(55).normal(1.0, 2.0, size=shape).astype(dtype)
        layer.forward(Tensor(x, requires_grad=True), training=True)
        mu, var = (a.reshape(-1) for a in moments_oracle(x.astype(np.float64), (0, 2, 3)))
        np.testing.assert_allclose(layer.run_mean, 0.1 * mu, rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(layer.run_var, 0.9 * 1.0 + 0.1 * var, rtol=1e-5)
