"""Tensor-core tests: oracle convolutions, sums, round trips, autodiff."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvformer.tensor as tensor
from mvformer.gradcheck import check_gradients
from mvformer.model import build_model, model_config, stage_map_sizes
from mvformer.training import ce_label_smoothing
from oracles import (
    conv2d_grads_oracle,
    conv2d_oracle,
    max_rel_err,
    moments,
    mul,
    numeric_grad,
    relu,
    residual_oracle,
    star_relu_oracle,
    sub,
)
from mvformer.tensor import (
    GraphError,
    ShapeError,
    Tensor,
    add,
    backward,
    channel_concat,
    channel_split,
    conv2d,
    global_avg_pool,
    grad_enabled,
    mean,
    residual,
    sqrt,
    star_relu,
    square,
    tsum,
)


KERNELS = ("_pointwise", "_depthwise_banded", "_depthwise_taps", "_depthwise_unrolled", "_general")


class TestConv2d:
    def test_ones_kernel_pad1(self):
        x = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        w = Tensor(np.ones((1, 1, 3, 3), dtype=np.float32))
        out = conv2d(x, w, pad=1).data[0, 0]
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float32)
        assert np.array_equal(out, expected)

    def test_identity_pointwise(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)).astype(np.float32))
        w = Tensor(np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1))
        out = conv2d(x, w)
        assert np.array_equal(out.data, x.data)

    def test_depthwise_identity_unit_kernels(self):
        rng = np.random.default_rng(1)
        c = 5
        x = Tensor(rng.normal(size=(2, c, 3, 3)).astype(np.float32))
        w = Tensor(np.ones((c, 1, 1, 1), dtype=np.float32))
        out = conv2d(x, w, groups=c)
        assert np.array_equal(out.data, x.data)

    def test_grouped_per_channel_scale(self):
        x = np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2)
        w = np.array([2.0, 3.0], dtype=np.float32).reshape(2, 1, 1, 1)
        out = conv2d(Tensor(x), Tensor(w), groups=2).data
        assert np.array_equal(out[0, 0], 2.0 * x[0, 0])
        assert np.array_equal(out[0, 1], 3.0 * x[0, 1])

    @pytest.mark.parametrize(
        "shape,kernel,stride,pad,groups",
        [
            ((2, 3, 6, 7), (4, 3, 3, 3), (1, 1), (1, 1), 1),
            ((1, 4, 8, 8), (4, 1, 3, 3), (1, 1), (1, 1), 4),
            ((2, 3, 9, 9), (5, 3, 7, 7), (4, 4), (2, 2), 1),
            ((2, 2, 9, 7), (2, 1, 5, 3), (1, 1), (2, 1), 2),  # kh > kw > 1: the band on a transposed view
            ((1, 2, 6, 6), (2, 1, 5, 1), (1, 1), (2, 0), 2),
            ((1, 2, 6, 6), (2, 1, 1, 5), (1, 1), (0, 2), 2),
            # depthwise kernels larger than the map: most taps read only padding
            ((2, 3, 1, 1), (3, 1, 7, 7), (1, 1), (3, 3), 3),
            ((2, 4, 2, 2), (4, 1, 7, 7), (1, 1), (3, 3), 4),
            ((2, 3, 4, 4), (3, 1, 27, 1), (1, 1), (13, 0), 3),
            ((2, 3, 4, 4), (3, 1, 1, 27), (1, 1), (0, 13), 3),
            ((2, 3, 2, 2), (3, 1, 13, 1), (1, 1), (6, 0), 3),
            # pointwise with bias at batch > 1
            ((3, 5, 4, 6), (7, 5, 1, 1), (1, 1), (0, 0), 1),
            # rectangular depthwise kernels with both sides > 1, banded and unrolled
            ((2, 4, 7, 9), (4, 1, 3, 5), (1, 1), (1, 2), 4),
            ((8, 4, 3, 5), (4, 1, 5, 3), (1, 1), (2, 1), 4),
            # depthwise with n >= h*w: the unrolled map-matrix kernel
            ((64, 2, 8, 8), (2, 1, 7, 7), (1, 1), (3, 3), 2),
            ((16, 3, 4, 4), (3, 1, 3, 3), (1, 1), (1, 1), 3),
            ((16, 3, 4, 4), (3, 1, 27, 1), (1, 1), (13, 0), 3),
            ((16, 3, 4, 4), (3, 1, 1, 27), (1, 1), (0, 13), 3),
            ((4, 3, 2, 2), (3, 1, 13, 1), (1, 1), (6, 0), 3),
            # batch 1 on the banded kernel: the xT maps, a width that is not a
            # multiple of the 8-column tile, and the no-stage-split stage-1 filters
            ((1, 2, 56, 56), (2, 1, 7, 7), (1, 1), (3, 3), 2),
            ((1, 2, 56, 56), (2, 1, 3, 3), (1, 1), (1, 1), 2),
            ((1, 3, 13, 13), (3, 1, 7, 7), (1, 1), (3, 3), 3),
            ((1, 2, 28, 28), (2, 1, 27, 1), (1, 1), (13, 0), 2),
            ((1, 2, 28, 28), (2, 1, 1, 27), (1, 1), (0, 13), 2),
            ((1, 1, 56, 56), (1, 1, 55, 1), (1, 1), (27, 0), 1),
            ((1, 1, 56, 56), (1, 1, 1, 55), (1, 1), (0, 27), 1),
        ],
    )
    def test_against_nested_loop_oracle(self, shape, kernel, stride, pad, groups):
        rng = np.random.default_rng(42)
        x = rng.normal(size=shape)
        w = rng.normal(size=kernel)
        b = rng.normal(size=kernel[0])
        got = conv2d(
            Tensor(x.astype(np.float32)),
            Tensor(w.astype(np.float32)),
            Tensor(b.astype(np.float32).reshape(1, -1, 1, 1)),
            stride=stride,
            pad=pad,
            groups=groups,
        ).data
        want = conv2d_oracle(x, w, b, stride, pad, groups)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize(
        "shape,kernel,stride,pad,groups,path",
        [
            ((3, 5, 4, 6), (7, 5, 1, 1), 1, 0, 1, "_pointwise"),
            ((2, 4, 8, 8), (4, 1, 7, 7), 1, 3, 4, "_depthwise_banded"),
            ((2, 3, 8, 4), (3, 1, 27, 1), 1, (13, 0), 3, "_depthwise_banded"),
            ((2, 3, 8, 8), (4, 3, 3, 3), 2, 1, 1, "_general"),  # downsample
            ((2, 3, 6, 6), (5, 3, 3, 3), 1, 1, 1, "_general"),  # dense, stride 1
            ((2, 3, 6, 6), (4, 3, 1, 1), 2, 0, 1, "_general"),  # strided 1x1
            ((2, 1, 6, 6), (1, 1, 3, 3), 1, 1, 1, "_depthwise_banded"),  # c_in == c_out == 1: depthwise first
            ((2, 3, 5, 5), (4, 3, 1, 1), 1, 1, 1, "_general"),  # padded 1x1
            ((4, 3, 4, 4), (3, 1, 3, 3), 1, 1, 3, "_depthwise_unrolled"),  # h*w == 16 > n
            ((3, 3, 1, 17), (3, 1, 3, 3), 1, 1, 3, "_depthwise_banded"),  # h*w == 17 > n
            ((64, 4, 8, 8), (4, 1, 7, 7), 1, 3, 4, "_depthwise_unrolled"),
            ((2, 4, 1, 1), (4, 1, 7, 7), 1, 3, 4, "_depthwise_unrolled"),
            ((2, 4, 2, 2), (4, 1, 7, 7), 1, 3, 4, "_depthwise_unrolled"),  # gradient-check maps at n=2
            ((20, 3, 4, 5), (3, 1, 3, 3), 1, 1, 3, "_depthwise_unrolled"),  # h*w == n > 16
            ((19, 3, 4, 5), (3, 1, 3, 3), 1, 1, 3, "_depthwise_banded"),  # h*w == n + 1 > 16
            ((3, 5, 1, 1), (7, 5, 1, 1), 1, 0, 1, "_pointwise"),  # one product over the batch
            ((1, 159, 5, 5), (159, 1, 3, 3), 1, 1, 159, "_depthwise_banded"),  # one channel short
            ((1, 160, 5, 5), (160, 1, 3, 3), 1, 1, 160, "_depthwise_taps"),  # enough channels for channels-last
            ((1, 160, 14, 14), (160, 1, 13, 1), 1, (6, 0), 160, "_depthwise_taps"),
            ((1, 128, 28, 28), (128, 1, 7, 7), 1, 3, 128, "_depthwise_banded"),  # xT's stage-2 7x7
            ((1, 512, 4, 4), (512, 1, 7, 7), 1, 3, 512, "_depthwise_unrolled"),  # small maps stay unrolled
        ],
    )
    def test_kernel_routing(self, monkeypatch, shape, kernel, stride, pad, groups, path):
        used = []
        for name in KERNELS:
            real = getattr(tensor, name)
            monkeypatch.setattr(tensor, name, lambda *a, _n=name, _f=real: used.append(_n) or _f(*a))
        out = conv2d(Tensor(np.ones(shape)), Tensor(np.ones(kernel)), stride=stride, pad=pad, groups=groups)
        assert used == [path]
        assert out.data.flags.c_contiguous

    @pytest.mark.parametrize(
        "shape,kernel,pad,values,budget",
        [
            # xT's stage-1 7x7: 56 rows x 7 tiles, each reading 7 kernel rows x 14 columns; 2 blocks
            ((1, 64, 56, 56), (64, 1, 7, 7), (3, 3), 56 * 7 * 7 * 14, None),
            # k x 1 on the transposed view: 56 x 7 tiles of 62 columns; uneven blocks (50, 49)
            ((1, 99, 56, 56), (99, 1, 55, 1), (27, 0), 56 * 7 * 62, None),
            # a smaller budget: 11 blocks, the last one short
            ((1, 64, 56, 56), (64, 1, 7, 7), (3, 3), 56 * 7 * 7 * 14, 1 << 18),
        ],
    )
    def test_banded_channel_blocks_equal_per_channel_calls(self, monkeypatch, shape, kernel, pad, values, budget):
        if budget is not None:
            monkeypatch.setattr(tensor, "_BAND_BLOCK", budget)
        c = shape[1]
        assert c * values > tensor._BAND_BLOCK > values  # several channels a block, several blocks
        rng = np.random.default_rng(5)
        x = rng.normal(size=shape).astype(np.float32)
        w = rng.normal(size=kernel).astype(np.float32)
        gy = rng.normal(size=shape).astype(np.float32)
        out, grads = tensor._depthwise_banded(x, w, *pad)
        gx, gw = grads(gy, True, True)
        for i in range(c):
            one = slice(i, i + 1)
            out1, grads1 = tensor._depthwise_banded(x[:, one], w[one], *pad)
            gx1, gw1 = grads1(gy[:, one], True, True)
            assert out[:, one].tobytes() == out1.tobytes() and gx[:, one].tobytes() == gx1.tobytes()
            assert gw[one].tobytes() == gw1.tobytes()
        sel = [0, c // 2, c - 1]
        x64, w64 = x[:, sel].astype(np.float64), w[sel].astype(np.float64)
        np.testing.assert_allclose(out[:, sel], conv2d_oracle(x64, w64, None, (1, 1), pad, 3), rtol=1e-5, atol=1e-5)
        want_gx, want_gw = conv2d_grads_oracle(x64, w64, gy[:, sel].astype(np.float64), (1, 1), pad, 3)
        for got, want in ((gx[:, sel], want_gx), (gw[sel], want_gw)):
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4 * np.abs(want).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("kernel", [(3, 3), (7, 7), (13, 1), (1, 27)], ids=lambda k: "x".join(map(str, k)))
    def test_taps_against_oracles(self, kernel, n, dtype):
        """The channels-last kernel's output and gradients against the oracles; the 1x27 filter
        on an 11-column map has dead taps.  Its backward keeps only x and w, no padded copy."""
        rng = np.random.default_rng(37)
        shape, pad = (n, 6, 9, 11), (kernel[0] // 2, kernel[1] // 2)
        x = rng.normal(size=shape).astype(dtype)
        w = rng.normal(size=(6, 1, *kernel)).astype(dtype)
        gy = rng.normal(size=shape).astype(dtype)
        out, grads = tensor._depthwise_taps(x, w, *pad)
        gx, gw = grads(gy, True, True)
        assert out.dtype == gx.dtype == gw.dtype == dtype and out.flags.c_contiguous and gx.flags.c_contiguous
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(out, conv2d_oracle(x, w, None, (1, 1), pad, 6), rtol=tol, atol=tol)
        want_gx, want_gw = conv2d_grads_oracle(x, w, gy, (1, 1), pad, 6)
        for got, want in ((gx, want_gx), (gw, want_gw)):
            np.testing.assert_allclose(got, want, rtol=10 * tol, atol=10 * tol * np.abs(want).max())
        assert grads(gy, False, True)[0] is None and grads(gy, True, False)[1] is None
        held = [c.cell_contents for c in grads.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert held and all(np.shares_memory(a, x) or np.shares_memory(a, w) for a in held)

    @pytest.mark.parametrize(
        "shape,kernel,pad,live_rows,live_cols",
        [
            ((2, 4, 2, 3), (7, 7), (3, 3), slice(2, 5), slice(1, 6)),
            ((1, 4, 3, 9), (13, 1), (6, 0), slice(4, 9), slice(0, 1)),
        ],
    )
    def test_taps_crop_dead_taps(self, shape, kernel, pad, live_rows, live_cols):
        """On a map smaller than the kernel only the taps that reach data run: output and gradients
        match the oracles, and every dead tap's weight gradient is exactly 0."""
        rng = np.random.default_rng(41)
        c = shape[1]
        x = rng.normal(size=shape)
        w = rng.normal(size=(c, 1, *kernel))
        gy = rng.normal(size=shape)
        out, grads = tensor._depthwise_taps(x, w, *pad)
        gx, gw = grads(gy, True, True)
        np.testing.assert_allclose(out, conv2d_oracle(x, w, None, (1, 1), pad, c), rtol=1e-12, atol=1e-12)
        want_gx, want_gw = conv2d_grads_oracle(x, w, gy, (1, 1), pad, c)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw, want_gw, rtol=1e-12, atol=1e-12)
        dead = np.ones(kernel, dtype=bool)
        dead[live_rows, live_cols] = False
        assert (gw[:, :, dead] == 0).all() and (gw[:, :, ~dead] != 0).all()

    @pytest.mark.parametrize("pad", [1, 2])
    def test_strided_conv_keeps_no_padded_copy(self, pad):
        """The stem/downsample kernel re-pads `x` in its backward instead of keeping a padded copy,
        with the batch axis outermost (n = 2) or innermost (n = 8) in its columns (w_out is 4)."""
        rng = np.random.default_rng(19)
        for n in (2, 8):
            x = Tensor(rng.normal(size=(n, 3, 8, 8)), requires_grad=True)
            w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
            out = conv2d(x, w, stride=2, pad=pad)
            held, stack, seen = [], [out._backward], set()
            while stack:  # every array reachable through the backward's closures
                fn = stack.pop()
                if id(fn) in seen:
                    continue
                seen.add(id(fn))
                for cell in fn.__closure__ or ():
                    c = cell.cell_contents
                    if isinstance(c, np.ndarray):
                        held.append(c)
                    elif callable(c) and hasattr(c, "__closure__"):
                        stack.append(c)
            assert held and all(np.shares_memory(a, x.data) or np.shares_memory(a, w.data) for a in held)
            assert not any(a.size == n * 3 * (8 + 2 * pad) ** 2 for a in held)

    # (x, kernel, stride, pad, groups): the micro stem and downsamples at the training
    # batch (n > w_out: the batch axis innermost) and at the gradient check's (innermost
    # only on the 2x2 map), an odd map with n > w_out, and batch 1
    GENERAL_CALLS = [
        ((64, 3, 32, 32), (8, 3, 7, 7), 4, 2, 1),
        ((64, 8, 8, 8), (16, 8, 3, 3), 2, 1, 1),
        ((64, 16, 4, 4), (32, 16, 3, 3), 2, 1, 1),
        ((64, 32, 2, 2), (64, 32, 3, 3), 2, 1, 1),
        ((2, 3, 32, 32), (8, 3, 7, 7), 4, 2, 1),
        ((2, 8, 8, 8), (16, 8, 3, 3), 2, 1, 1),
        ((2, 32, 2, 2), (64, 32, 3, 3), 2, 1, 1),
        ((9, 6, 9, 9), (8, 6, 3, 3), 2, 1, 1),
        ((1, 3, 20, 20), (8, 3, 7, 7), 4, 2, 1),
    ]

    @pytest.mark.parametrize(
        "shape,kernel,stride,pad,groups",
        GENERAL_CALLS,
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_general_both_orders_against_oracle(self, monkeypatch, shape, kernel, stride, pad, groups):
        """Output and every gradient of ``_general``, whichever order its columns take, against the
        oracles.  The weight gradient, computed as ``(cols @ g2.T).T``, must also equal ``g2 @ cols.T``
        byte for byte in float32 and float64: that is the same-bits claim for the product order.  It
        holds for the OpenBLAS build numpy's wheels ship (scipy-openblas 0.3.x); whether two GEMM calls
        agree bit for bit depends on the BLAS, so on another BLAS only the oracle check is portable."""
        used = []
        real = tensor._general
        monkeypatch.setattr(tensor, "_general", lambda *a: used.append(1) or real(*a))
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=kernel).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(1, kernel[0], 1, 1)).astype(np.float32), requires_grad=True)
        y = conv2d(x, w, b, stride=stride, pad=pad, groups=groups)
        assert used and y.data.flags.c_contiguous and y.dtype == np.float32
        want = conv2d_oracle(x.data, w.data, b.data, (stride, stride), (pad, pad), groups)
        np.testing.assert_allclose(y.data, want, rtol=1e-5, atol=1e-5)
        gy = rng.normal(size=y.shape).astype(np.float32)
        backward(tsum(mul(y, Tensor(gy))))
        gx, gw = conv2d_grads_oracle(x.data, w.data, gy, (stride, stride), (pad, pad), groups)
        for t, g in ((x, gx), (w, gw), (b, gy.sum(axis=(0, 2, 3), keepdims=True))):
            np.testing.assert_allclose(t.grad, g, rtol=1e-4, atol=1e-4 * np.abs(g).max())
        assert w.grad.tobytes() == self.general_weight_grad(x.data, gy, kernel, stride, pad).tobytes()
        x64, gy64 = x.data.astype(np.float64), gy.astype(np.float64)
        w64 = Tensor(w.data.astype(np.float64), requires_grad=True)
        backward(tsum(mul(conv2d(Tensor(x64), w64, stride=stride, pad=pad), Tensor(gy64))))
        assert w64.grad.tobytes() == self.general_weight_grad(x64, gy64, kernel, stride, pad).tobytes()

    @staticmethod
    def general_weight_grad(x, gy, kernel, stride, pad):
        """``np.matmul(g2, cols.T)``: the output gradient times the transposed im2col matrix, both in
        ``_general``'s column order (the batch innermost when n > w_out), as a (c_out, c_in, kh, kw) array."""
        n, _, hout, wout = gy.shape
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        win = np.lib.stride_tricks.sliding_window_view(xp, kernel[2:], axis=(2, 3))[:, :, ::stride, ::stride]
        order = ((1, 4, 5, 2, 3, 0), (1, 2, 3, 0)) if n > wout else ((1, 4, 5, 0, 2, 3), (1, 0, 2, 3))
        cols = win[:, :, :hout, :wout].transpose(order[0]).reshape(np.prod(kernel[1:]), -1)
        g2 = gy.transpose(order[1]).reshape(kernel[0], -1)
        return np.matmul(g2, cols.T).reshape(kernel)

    def test_bad_signature_raises_on_every_call(self):
        """A cached plan does not cache a failure away: the second bad call raises the same error."""
        x = Tensor(np.zeros((1, 4, 3, 3)))
        w = Tensor(np.zeros((2, 3, 1, 1)))
        messages = []
        for _ in range(2):
            with pytest.raises(ShapeError, match="channels per group") as err:
                conv2d(x, w)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_list_stride_and_pad_equal_tuples(self):
        """The plan is keyed on the raw arguments: an int, a tuple and a list give the same kernel and bits."""
        rng = np.random.default_rng(3)
        cases = [  # shape, kernel, stride, pad, groups: dense strided, depthwise, depthwise k x 1, pointwise
            ((2, 3, 9, 9), (4, 3, 3, 3), 2, 1, 1),
            ((2, 4, 6, 6), (4, 1, 3, 3), 1, 1, 4),
            ((2, 4, 6, 6), (4, 1, 7, 1), 1, (3, 0), 4),
            ((2, 3, 5, 5), (6, 3, 1, 1), 1, 0, 1),
        ]
        pair = lambda v: v if isinstance(v, tuple) else (v, v)  # noqa: E731
        for shape, kernel, stride, pad, groups in cases:
            x = Tensor(rng.normal(size=shape))
            w = Tensor(rng.normal(size=kernel))
            spellings = [(stride, pad), (pair(stride), pair(pad)), (list(pair(stride)), list(pair(pad)))]
            outs = {conv2d(x, w, stride=s, pad=p, groups=groups).data.tobytes() for s, p in spellings}
            assert len(outs) == 1, (shape, kernel)

    def test_kernel_patched_after_plan_runs(self, monkeypatch):
        """The plan names its kernel; conv2d looks it up per call, so a kernel replaced after the
        signature was planned is the one that runs."""
        x = Tensor(np.ones((2, 3, 8, 8)))
        w = Tensor(np.ones((4, 3, 3, 3)))
        want = conv2d(x, w, stride=2, pad=1).data
        used = []
        real = tensor._general
        monkeypatch.setattr(tensor, "_general", lambda *a: used.append(1) or real(*a))
        assert np.array_equal(conv2d(x, w, stride=2, pad=1).data, want) and used == [1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_pointwise_on_one_pixel_maps(self, monkeypatch, n, dtype):
        """On 1x1 maps the pointwise kernel is one product over the batch; output and gradients
        match the oracle, and the tape-free output equals the taped one."""
        used = []
        real = tensor._pointwise
        monkeypatch.setattr(tensor, "_pointwise", lambda *a: used.append(1) or real(*a))
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(n, 64, 1, 1)).astype(dtype), requires_grad=True)
        w = Tensor(rng.normal(size=(96, 64, 1, 1)).astype(dtype), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 96, 1, 1)).astype(dtype), requires_grad=True)
        y = conv2d(x, w, b)
        with grad_enabled(False):
            free = conv2d(x, w, b)
        assert len(used) == 2 and y.dtype == dtype and y.data.flags.c_contiguous
        assert np.array_equal(free.data, y.data)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(y.data, conv2d_oracle(x.data, w.data, b.data), rtol=tol, atol=tol)
        gy = rng.normal(size=y.shape).astype(dtype)
        backward(tsum(mul(y, Tensor(gy))))
        gx, gw = conv2d_grads_oracle(x.data, w.data, gy)
        for t, g in ((x, gx), (w, gw)):
            assert t.grad.dtype == dtype
            np.testing.assert_allclose(t.grad, g, rtol=tol, atol=tol * np.abs(g).max())

    def test_shape_errors_name_axes(self):
        x = Tensor(np.zeros((1, 4, 3, 3)))
        w = Tensor(np.zeros((2, 3, 1, 1)))
        with pytest.raises(ShapeError, match="channels per group"):
            conv2d(x, w)
        with pytest.raises(ShapeError, match="groups=3"):
            conv2d(x, Tensor(np.zeros((3, 1, 1, 1))), groups=3)
        with pytest.raises(ShapeError, match="too small"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    @pytest.mark.parametrize(
        "shape,kernel,stride,pad,groups",
        [
            ((1, 6, 5, 5), (6, 3, 1, 1), 1, 0, 2),
            ((2, 4, 7, 7), (6, 2, 3, 3), 2, 1, 2),
            ((9, 6, 9, 9), (8, 3, 3, 3), 2, 1, 2),
            ((5, 4, 7, 7), (6, 2, 3, 3), 2, 1, 2),
            ((2, 4, 7, 7), (4, 1, 3, 3), 2, 1, 4),
            ((2, 4, 6, 6), (4, 1, 3, 3), 1, 0, 4),
            ((2, 4, 6, 6), (8, 1, 3, 3), 1, 1, 4),
        ],
        ids=[
            "grouped-pointwise",
            "grouped-strided",
            "grouped-strided-n9",
            "grouped-strided-n5",
            "depthwise-strided",
            "depthwise-shrinking",
            "depthwise-multiplier",
        ],
    )
    def test_unsupported_forms_rejected(self, monkeypatch, shape, kernel, stride, pad, groups):
        """Grouped calls with 1 < groups < c_in, and depthwise calls that are strided, change
        the map size or have c_out != c_in, name the supported forms and run no kernel."""
        for name in KERNELS:
            monkeypatch.setattr(tensor, name, None)
        with pytest.raises(ShapeError, match=r"dense calls \(groups=1\) and stride-1 depthwise"):
            conv2d(Tensor(np.ones(shape)), Tensor(np.ones(kernel)), stride=stride, pad=pad, groups=groups)


class TestDepthwiseRouting:
    """The kernel of every depthwise call the presets make: the depthwise traffic, asked of
    ``_conv_plan`` from shapes alone, so a routing change shows here first."""

    LETTER = {"_depthwise_banded": "b", "_depthwise_taps": "t", "_depthwise_unrolled": "u"}
    # (preset, input side, batch): per stage, one letter per depthwise conv in
    # `StageSpec.depthwise_groups` order (local 3x3, inter 7x7, then the global k x 1, 1 x k or k x k)
    TABLE = {
        ("xT", 224, 1): ("bb", "bbbb", "tttt", "tt"),
        ("xT", 448, 1): ("bb", "bbbb", "tttt", "tt"),
        ("T", 224, 1): ("bb", "bbbb", "tttt", "tt"),
        ("T", 448, 1): ("bb", "bbbb", "tttt", "tt"),
        ("S", 224, 1): ("bb", "bbbb", "tttt", "tt"),
        ("S", 448, 1): ("bb", "bbbb", "tttt", "tt"),
        ("B", 224, 1): ("bb", "btbb", "tttt", "tt"),  # the 192-channel stage-2 7x7 runs taps
        ("B", 448, 1): ("bb", "btbb", "tttt", "tt"),  # ... also on its 56x56 maps
        ("micro", 32, 64): ("uu", "uuuu", "uuuu", "uu"),
        ("micro", 32, 2): ("bb", "uuuu", "uuuu", "uu"),  # banded on the 8x8 maps only
    }

    @pytest.mark.parametrize("preset,side,n", list(TABLE))
    def test_kernel_of_every_depthwise_call(self, preset, side, n):
        cfg = model_config(preset)
        got = []
        for stage, hw in enumerate(stage_map_sizes(side), start=1):
            letters = ""
            for _, c, kernels in cfg.stage_spec(stage).depthwise_groups:
                for _, (kh, kw) in kernels:
                    name, _ = tensor._conv_plan((n, c, hw, hw), (c, 1, kh, kw), None, 1, (kh // 2, kw // 2), c)
                    letters += self.LETTER[name]
            got.append(letters)
        assert tuple(got) == self.TABLE[preset, side, n]


class TestSumKeep:
    AXES = [(2, 3), (1,), (0, 2, 3), (0,), (0, 1, 2, 3), (1, 2), (3,), ()]
    SHAPES = [(4, 5, 3, 6), (1, 5, 3, 6), (4, 5, 1, 1), (1, 1, 1, 1)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("axes", AXES)
    def test_matches_add_reduce(self, axes, shape, dtype):
        rng = np.random.default_rng(31)
        n, c, h, w = shape
        inputs = {
            "contiguous": rng.normal(size=shape).astype(dtype),
            "broadcast": np.broadcast_to(rng.normal(size=(1, c, h, w)).astype(dtype), shape),
            "transposed": rng.normal(size=(n, c, w, h)).astype(dtype).transpose(0, 1, 3, 2),
        }
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for kind, a in inputs.items():
            got = tensor._sum_keep(a, axes)
            want = np.add.reduce(a, axis=axes, keepdims=True)
            assert got.shape == want.shape and got.dtype == dtype, kind
            assert (np.abs(got - want) <= tol * np.add.reduce(np.abs(a), axis=axes, keepdims=True)).all(), kind
            assert got.flags.writeable and not np.shares_memory(got, a), kind


class TestSplitConcat:
    def test_table_split_with_empty_group(self):
        x = Tensor(np.arange(2 * 8 * 2 * 2, dtype=np.float32).reshape(2, 8, 2, 2))
        parts = channel_split(x, [4, 4, 0])
        assert [p.shape[1] for p in parts] == [4, 4, 0]
        assert np.array_equal(parts[0].data, x.data[:, :4])

    def test_identity_split(self):
        x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 8, 1, 1))
        (only,) = channel_split(x, [8])
        assert np.array_equal(only.data, x.data)

    def test_concat_constants(self):
        a = Tensor(np.full((2, 1, 3, 3), 1.0, dtype=np.float32))
        b = Tensor(np.full((2, 1, 3, 3), 2.0, dtype=np.float32))
        out = channel_concat([a, b]).data
        assert (out[:, 0] == 1.0).all() and (out[:, 1] == 2.0).all()

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="sum"):
            channel_split(Tensor(np.ones((1, 8, 1, 1))), [4, 3])

    def test_spatial_mismatch_rejected(self):
        a = Tensor(np.ones((1, 1, 2, 2)))
        b = Tensor(np.ones((1, 1, 3, 2)))
        with pytest.raises(ShapeError, match="axis 2"):
            channel_concat([a, b])

    @pytest.mark.parametrize(
        "call",
        [
            lambda: channel_split(Tensor(np.ones((1, 8, 1, 1))), [4, 3]),
            lambda: channel_split(Tensor(np.ones((1, 8, 1, 1))), (9, -1)),
            lambda: channel_concat([Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((2, 1, 2, 2)))]),
            lambda: channel_concat([]),
        ],
        ids=["split-sum", "split-negative", "concat-batch", "concat-empty"],
    )
    def test_bad_call_raises_alike_every_call(self, call):
        """The checks are cached per signature, their failures are not."""
        messages = []
        for _ in range(2):
            with pytest.raises(ShapeError) as err:
                call()
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 5), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_bitwise(self, seed, sizes):
        c = sum(sizes)
        if c == 0:
            sizes = sizes + [3]
            c = 3
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, c, 3, 2)).astype(np.float32))
        back = channel_concat(channel_split(x, sizes))
        assert np.array_equal(back.data, x.data)


class TestElementwise:
    def test_add_zero(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 2, 2)).astype(np.float32))
        assert np.array_equal(add(x, 0.0).data, x.data)

    def test_channel_vector_ones_identity(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 2, 2)).astype(np.float32))
        ones = Tensor(np.ones((1, 3, 1, 1), dtype=np.float32))
        assert np.array_equal(mul(x, ones).data, x.data)

    def test_add_sub_round_trip(self):
        rng = np.random.default_rng(2)
        a = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        b = Tensor(rng.normal(size=(2, 3, 4, 4)).astype(np.float32))
        np.testing.assert_allclose(sub(add(a, b), b).data, a.data, atol=1e-6)

    def test_incompatible_shapes_rejected(self):
        a = Tensor(np.ones((1, 3, 2, 2)))
        b = Tensor(np.ones((1, 2, 2, 2)))
        with pytest.raises(ShapeError, match="axis 1"):
            add(a, b)
        # numpy decides; the named error is built only when it refuses
        with pytest.raises(ShapeError, match=r"^cannot broadcast axis 1: sizes 2 and 3 \(shapes \(1, 2, 3, 3\) vs \(1, 3, 3, 3\)\)$"):
            add(Tensor(np.ones((1, 2, 3, 3))), Tensor(np.ones((1, 3, 3, 3))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_bitwise_matches_where_form(self, dtype):
        rng = np.random.default_rng(3)
        arr = rng.normal(size=(2, 3, 5, 5)).astype(dtype)
        arr.reshape(-1)[:4] = [0.0, -0.0, np.finfo(dtype).tiny, -np.finfo(dtype).tiny]
        got = relu(Tensor(arr)).data
        want = np.where(arr > 0, arr, 0)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()  # bytes, so -0.0 vs +0.0 counts
        assert not np.signbit(got).any()

    def test_relu_propagates_nan(self):
        arr = np.array([np.nan, -1.0, 2.0, np.nan], dtype=np.float32).reshape(1, 1, 2, 2)
        x = Tensor(arr, requires_grad=True)
        out = relu(x)
        np.testing.assert_array_equal(out.data.reshape(-1), [np.nan, 0.0, 2.0, np.nan])
        backward(tsum(out))
        np.testing.assert_array_equal(x.grad.reshape(-1), [0.0, 0.0, 1.0, 0.0])


def _edge_values(rng, shape, dtype):
    """Normal draws whose first entries are a negative, 0, -0.0 and NaN."""
    arr = rng.normal(size=shape).astype(dtype)
    arr.reshape(-1)[:4] = [-1.5, 0.0, -0.0, np.nan]
    return arr


def _taped_grads(fn, arrays, upstream):
    """Bytes of ``fn(*tensors)`` and of each input's gradient under the loss ``sum(out * upstream)``."""
    tensors = [None if a is None else Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    backward(tsum(mul(out, Tensor(upstream))))
    return out.data.tobytes(), [None if t is None else t.grad.tobytes() for t in tensors]


class TestFusedOps:
    """``star_relu`` and ``residual`` against their unfused oracles, bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("param_shape", [(1, 1, 1, 1), (1, 3, 1, 1)])
    def test_star_relu_bitwise_matches_oracle(self, dtype, param_shape):
        rng = np.random.default_rng(11)
        shape = (2, 3, 4, 4)
        x = _edge_values(rng, shape, dtype)
        s = rng.normal(size=param_shape).astype(dtype)
        b = rng.normal(size=param_shape).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        got = _taped_grads(star_relu, (x, s, b), g)
        want = _taped_grads(star_relu_oracle, (x, s, b), g)
        assert got == want
        assert np.isnan(np.frombuffer(got[0], dtype)[3])  # NaN propagates

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_scale", [False, True])
    @pytest.mark.parametrize("with_keep", [False, True])
    def test_residual_bitwise_matches_oracle(self, dtype, with_scale, with_keep):
        rng = np.random.default_rng(12)
        shape = (4, 3, 2, 2)
        x = _edge_values(rng, shape, dtype)
        branch = _edge_values(rng, shape, dtype)[::-1].copy()
        scale = rng.normal(size=(1, 3, 1, 1)).astype(dtype) if with_scale else None
        keep = np.array([0.0, 1.25, 1.25, 0.0], dtype).reshape(-1, 1, 1, 1) if with_keep else None
        g = rng.normal(size=shape).astype(dtype)

        def fused(x, branch, scale):
            return residual(x, branch, scale, keep)

        def oracle(x, branch, scale):
            return residual_oracle(x, branch, scale, keep)

        got = _taped_grads(fused, (x, branch, scale), g)
        want = _taped_grads(oracle, (x, branch, scale), g)
        assert got == want

    @pytest.mark.parametrize("with_scale", [False, True])
    def test_residual_tape_free_matches_taped(self, with_scale):
        rng = np.random.default_rng(13)
        x, branch = (Tensor(rng.normal(size=(2, 3, 2, 2))) for _ in range(2))
        scale = Tensor(rng.normal(size=(1, 3, 1, 1))) if with_scale else None
        keep = np.array([2.0, 0.0]).reshape(-1, 1, 1, 1)
        taped = residual(x, branch, scale, keep).data
        with grad_enabled(False):
            free = residual(x, branch, scale, keep)
        assert free.data.tobytes() == taped.tobytes() and free._backward is None
        assert not np.shares_memory(free.data, branch.data)

    def test_star_relu_gradients_match_central_differences(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, 3, 3))
        x[np.abs(x) < 0.05] = 0.3  # keep the kink at 0 outside the stencil
        s = np.array([0.9]).reshape(1, 1, 1, 1)
        b = np.array([-0.4]).reshape(1, 1, 1, 1)
        g = rng.normal(size=x.shape)
        tensors = [Tensor(a, requires_grad=True) for a in (x, s, b)]
        backward(tsum(mul(star_relu(*tensors), Tensor(g))))
        for t in tensors:
            num = numeric_grad(lambda: float(np.sum(star_relu(*tensors).data * g)), t.data, h=1e-6)
            assert max_rel_err(t.grad, num) < 1e-6

    def test_residual_gradients_match_central_differences(self):
        rng = np.random.default_rng(15)
        shapes = ((3, 2, 2, 2), (3, 2, 2, 2), (1, 2, 1, 1))  # x, branch, scale
        tensors = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
        keep = np.array([1.25, 0.0, 1.25]).reshape(-1, 1, 1, 1)
        g = rng.normal(size=(3, 2, 2, 2))
        backward(tsum(mul(residual(*tensors, keep), Tensor(g))))
        for t in tensors:
            num = numeric_grad(lambda: float(np.sum(residual(*tensors, keep).data * g)), t.data, h=1e-6)
            assert max_rel_err(t.grad, num) < 1e-6
        assert (tensors[1].grad[1] == 0).all()  # a dropped sample's branch gets no gradient

    def test_nodes_keep_no_array_but_the_mask(self):
        rng = np.random.default_rng(16)
        x, branch = (Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True) for _ in range(2))
        s, b, scale = (
            Tensor(rng.normal(size=shape), requires_grad=True) for shape in ((1, 1, 1, 1),) * 2 + ((1, 3, 1, 1),)
        )
        keep = np.array([2.0, 0.0]).reshape(-1, 1, 1, 1)

        def held_arrays(node):
            cells = [c.cell_contents for c in node._backward.__closure__ or ()]
            return [c for c in cells if isinstance(c, np.ndarray)]

        node = star_relu(x, s, b)
        assert node._parents == (x, s, b) and held_arrays(node) == []
        node = residual(x, branch, scale, keep)
        assert node._parents == (branch, scale, x)
        held = held_arrays(node)
        assert len(held) == 1 and held[0] is keep
        assert held_arrays(residual(x, branch)) == []

    def test_residual_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="residual"):
            residual(Tensor(np.ones((2, 3, 2, 2))), Tensor(np.ones((1, 3, 2, 2))))


class TestReductionAxes:
    @pytest.mark.parametrize("op,axes", [(tsum, (5,)), (mean, (-7,)), (tsum, (1, 4)), (mean, (-5, 0))])
    def test_out_of_range_axis_rejected(self, op, axes):
        x = Tensor(np.ones((2, 3, 2, 2), dtype=np.float32))
        bad = next(a for a in axes if not -4 <= a <= 3)
        with pytest.raises(ShapeError, match=f"reduction axis {bad} is out of range"):
            op(x, axes)

    def test_negative_axes_in_range_wrap(self):
        x = Tensor(np.arange(48, dtype=np.float32).reshape(2, 3, 2, 4))
        assert np.array_equal(tsum(x, (-4, -1)).data, tsum(x, (0, 3)).data)
        assert np.array_equal(mean(x, (-3,)).data, mean(x, (1,)).data)


class TestGlobalAvgPool:
    def test_constant(self):
        out = global_avg_pool(Tensor(np.full((1, 2, 3, 3), 3.0, dtype=np.float32)))
        assert out.shape == (1, 2, 1, 1)
        assert np.allclose(out.data, 3.0)

    def test_checkerboard(self):
        x = np.indices((4, 4)).sum(axis=0) % 2 * 2.0
        out = global_avg_pool(Tensor(x.reshape(1, 1, 4, 4).astype(np.float32)))
        assert out.data.reshape(()) == 1.0

    def test_matches_moments_mean(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)).astype(np.float32))
        mu, _ = moments(x, (2, 3))
        assert np.array_equal(global_avg_pool(x).data, mu.data)


class TestBackward:
    def test_linear(self):
        x = Tensor(np.arange(4, dtype=np.float32).reshape(1, 1, 2, 2), requires_grad=True)
        loss = tsum(mul(x, 2.0))
        backward(loss)
        assert np.array_equal(x.grad, np.full((1, 1, 2, 2), 2.0, dtype=np.float32))

    def test_square_at_three(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float32), requires_grad=True)
        backward(tsum(square(x)))
        assert x.grad.reshape(()) == 6.0

    def test_grad_accumulates_across_calls(self):
        x = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32), requires_grad=True)
        backward(tsum(x))
        backward(tsum(x))
        assert x.grad.reshape(()) == 2.0

    def test_reuse_within_graph_sums_contributions(self):
        x = Tensor(np.full((1, 1, 1, 1), 2.0, dtype=np.float64), requires_grad=True)
        # loss = x*x + x  ->  dloss/dx = 2x + 1 = 5
        backward(tsum(add(mul(x, x), x)))
        assert x.grad.reshape(()) == pytest.approx(5.0)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(GraphError, match="scalar"):
            backward(mul(x, 2.0))

    def test_detached_graph_rejected(self):
        x = Tensor(np.ones((1, 1, 1, 1)))
        with pytest.raises(GraphError, match="detached"):
            backward(tsum(x))

    def test_second_backward_on_consumed_graph_raises(self):
        x = Tensor(np.full((1, 1, 2, 2), 2.0), requires_grad=True)
        y = square(x)
        loss = tsum(y)
        backward(loss)
        assert loss._parents == () and y._parents == ()  # the tape is freed
        with pytest.raises(GraphError, match="consumed"):
            backward(loss)
        with pytest.raises(GraphError, match="consumed"):
            backward(tsum(y))  # a fresh loss over a consumed node
        assert np.array_equal(x.grad, np.full((1, 1, 2, 2), 4.0))  # from the first pass only

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: tsum(square(relu(x))),
            lambda x: tsum(sqrt(add(square(x), 1.0))),
            lambda x: mean(add(mul(x, x), x), (0, 1, 2, 3)),
            lambda x: tsum(square(channel_concat(channel_split(x, [2, 1])))),
            lambda x: tsum(square(conv2d(x, Tensor(np.ones((3, 3, 2, 2))), pad=1))),
            lambda x: tsum(square(global_avg_pool(x))),
        ],
    )
    def test_ops_match_central_differences(self, build):
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 4, 4)), requires_grad=True)
        assert x.dtype == np.float64
        backward(build(x))
        analytic = x.grad
        num = numeric_grad(lambda: build(x).item(), x.data)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(num)), 1e-4)
        assert (np.abs(analytic - num) / denom).max() < 1e-3

    def test_conv_parameter_grads_match_central_differences(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.uniform(-1, 1, size=(2, 2, 5, 5)))
        w = Tensor(rng.uniform(-1, 1, size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(1, 3, 1, 1)), requires_grad=True)

        def loss():
            return tsum(square(conv2d(x, w, b, stride=2, pad=1)))

        backward(loss())
        for t in (w, b):
            num = numeric_grad(lambda: loss().item(), t.data)
            denom = np.maximum(np.maximum(np.abs(t.grad), np.abs(num)), 1e-4)
            assert (np.abs(t.grad - num) / denom).max() < 1e-3

    @pytest.mark.parametrize(
        "shape,kernel,stride,pad,groups",
        [
            ((2, 4, 6, 6), (6, 4, 3, 3), 2, 1, 1),  # downsample
            ((2, 3, 11, 11), (4, 3, 7, 7), 4, 2, 1),  # stem
            ((2, 4, 7, 7), (6, 4, 3, 3), 2, 1, 1),  # odd map
            # n > w_out: the batch axis innermost in the columns
            ((5, 4, 6, 6), (6, 4, 3, 3), 2, 1, 1),
            ((5, 3, 11, 11), (4, 3, 7, 7), 4, 2, 1),
            ((5, 4, 7, 7), (6, 4, 3, 3), 2, 1, 1),
            ((3, 4, 2, 2), (6, 4, 3, 3), 2, 1, 1),
        ],
    )
    def test_general_conv_grads_match_central_differences(self, shape, kernel, stride, pad, groups):
        rng = np.random.default_rng(15)
        x = Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=kernel), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(1, kernel[0], 1, 1)), requires_grad=True)

        def loss():
            return tsum(square(conv2d(x, w, b, stride=stride, pad=pad, groups=groups)))

        backward(loss())
        for t in (x, w, b):
            num = numeric_grad(lambda: loss().item(), t.data)
            assert max_rel_err(t.grad, num) < 1e-3


class TestGradEnabled:
    def leaf(self):
        return Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)

    def test_disabled_ops_link_no_tape(self):
        x = self.leaf()
        with grad_enabled(False):
            out = tsum(square(conv2d(relu(x), Tensor(np.ones((2, 2, 1, 1))))))
            assert x.requires_grad  # leaves keep their flag
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        with pytest.raises(GraphError, match="detached"):
            backward(out)

    def test_same_arrays_with_and_without_tape(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 1, 3, 3)), requires_grad=True)

        def build():
            mu, var = moments(relu(conv2d(x, w, pad=1, groups=4)), (0, 2, 3))
            return add(sqrt(add(var, 1e-5)), mu)

        taped = build()
        with grad_enabled(False):
            free = build()
        assert taped.requires_grad and not free.requires_grad
        assert np.array_equal(taped.data, free.data)

    def test_restored_after_exception(self):
        with pytest.raises(ShapeError):
            with grad_enabled(False):
                add(self.leaf(), Tensor(np.ones((1, 3, 2, 2))))
        assert mul(self.leaf(), 2.0).requires_grad

    def test_nested_blocks_restore_outer_mode(self):
        x = self.leaf()
        with grad_enabled(False):
            with grad_enabled(True):
                assert mul(x, 2.0).requires_grad
            assert not mul(x, 2.0).requires_grad
            with grad_enabled(False):
                assert not mul(x, 2.0).requires_grad
            assert not mul(x, 2.0).requires_grad
        with grad_enabled(True):
            assert mul(x, 2.0).requires_grad
        assert mul(x, 2.0).requires_grad


class TestConvFastPathGrads:
    @pytest.mark.parametrize(
        "shape,kernel,pad,groups",
        [
            ((2, 3, 4, 4), (3, 1, 3, 3), (1, 1), 3),
            ((2, 3, 2, 2), (3, 1, 7, 7), (3, 3), 3),
            ((2, 2, 4, 4), (2, 1, 9, 1), (4, 0), 2),
            ((2, 2, 4, 4), (2, 1, 1, 9), (0, 4), 2),
            ((3, 4, 2, 3), (5, 4, 1, 1), (0, 0), 1),
            # n >= h*w: the unrolled map-matrix kernel
            ((4, 3, 2, 2), (3, 1, 3, 3), (1, 1), 3),
            ((16, 2, 4, 4), (2, 1, 7, 7), (3, 3), 2),
            ((16, 2, 4, 4), (2, 1, 1, 27), (0, 13), 2),
            ((3, 2, 1, 1), (2, 1, 7, 7), (3, 3), 2),
            # n < h*w: the banded kernel, with two column tiles and on a k x 1 filter
            ((1, 2, 9, 11), (2, 1, 7, 7), (3, 3), 2),
            ((1, 2, 10, 5), (2, 1, 5, 1), (2, 0), 2),
            ((2, 2, 6, 3), (2, 1, 13, 1), (6, 0), 2),
        ],
    )
    def test_grads_match_central_differences(self, shape, kernel, pad, groups):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=kernel), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(1, kernel[0], 1, 1)), requires_grad=True)

        def loss():
            return tsum(square(conv2d(x, w, b, pad=pad, groups=groups)))

        backward(loss())
        for t in (x, w, b):
            num = numeric_grad(lambda: loss().item(), t.data)
            assert max_rel_err(t.grad, num) < 1e-3

    @pytest.mark.parametrize(
        "shape,kernel,pad,live_rows,live_cols",
        [
            ((2, 3, 2, 2), (3, 1, 7, 7), (3, 3), slice(2, 5), slice(2, 5)),
            ((2, 3, 1, 1), (3, 1, 7, 7), (3, 3), slice(3, 4), slice(3, 4)),
            ((2, 3, 2, 2), (3, 1, 13, 1), (6, 0), slice(5, 8), slice(0, 1)),
            # n >= h*w: the unrolled map-matrix kernel
            ((4, 3, 2, 2), (3, 1, 7, 7), (3, 3), slice(2, 5), slice(2, 5)),
            ((4, 3, 2, 2), (3, 1, 13, 1), (6, 0), slice(5, 8), slice(0, 1)),
            ((16, 2, 4, 4), (2, 1, 27, 1), (13, 0), slice(10, 17), slice(0, 1)),
            # n < h*w: the banded kernel
            ((1, 3, 2, 2), (3, 1, 7, 7), (3, 3), slice(2, 5), slice(2, 5)),
            ((1, 3, 2, 2), (3, 1, 13, 1), (6, 0), slice(5, 8), slice(0, 1)),
            ((1, 3, 3, 2), (3, 1, 1, 9), (0, 4), slice(0, 1), slice(3, 6)),
        ],
    )
    def test_dead_taps_get_exactly_zero_weight_grad(self, shape, kernel, pad, live_rows, live_cols):
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(-1, 1, size=shape))
        w = Tensor(rng.uniform(-1, 1, size=kernel), requires_grad=True)

        def loss():
            return tsum(square(conv2d(x, w, pad=pad, groups=shape[1])))

        backward(loss())
        num = numeric_grad(lambda: loss().item(), w.data)
        assert max_rel_err(w.grad, num) < 1e-3
        dead = np.ones(kernel[2:], dtype=bool)
        dead[live_rows, live_cols] = False
        assert (w.grad[:, :, dead] == 0).all() and (num[:, :, dead] == 0).all()
        assert (w.grad[:, :, ~dead] != 0).all()


    def test_channels_last_depthwise_passes_the_gradient_check(self, monkeypatch):
        """A 7x7 depthwise conv with bias wide enough for ``_depthwise_taps``, which the gradient
        check's 8-channel layers never reach, through the float64 gradient check."""
        used = []
        real = tensor._depthwise_taps
        monkeypatch.setattr(tensor, "_depthwise_taps", lambda *a: used.append(1) or real(*a))
        rng = np.random.default_rng(43)
        x = Tensor(rng.uniform(-1, 1, size=(2, 160, 5, 5)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(160, 1, 7, 7)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(1, 160, 1, 1)), requires_grad=True)
        errors = check_gradients(
            lambda: tsum(square(conv2d(x, w, b, pad=3, groups=160))), [("x", x), ("w", w), ("b", b)], rng=rng
        )
        assert used and max(errors.values()) < 1e-6, errors


class TestDeterminism:
    def test_forward_bitwise_repeatable(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 4, 6, 6)).astype(np.float32)
        w = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)

        def run():
            return conv2d(Tensor(x), Tensor(w), pad=1).data

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_rank_enforced(self):
        with pytest.raises(ShapeError, match="rank-4"):
            Tensor(np.zeros((3, 3)))


class TestOpOutputs:
    """``_node`` wraps an op's array unchecked, so every op output must already be a valid tensor."""

    @staticmethod
    def recorded(monkeypatch):
        nodes = []
        real = tensor._node
        monkeypatch.setattr(tensor, "_node", lambda *a: nodes.append(real(*a)) or nodes[-1])
        return nodes

    @staticmethod
    def check(nodes, taped):
        assert nodes
        for t in nodes:  # reading a slot never set raises AttributeError
            assert type(t.data) is np.ndarray and t.data.ndim == 4 and t.data.dtype in (np.float32, np.float64)
            assert t.grad is None and type(t._parents) is tuple and t.requires_grad is taped
            assert (t._backward is not None) is taped and (len(t._parents) > 0) is taped

    def test_taped_micro_step(self, monkeypatch):
        model = build_model(model_config("micro", num_classes=4), seed=0)
        nodes = self.recorded(monkeypatch)
        x = Tensor(np.random.default_rng(0).uniform(0, 1, (4, 3, 32, 32)).astype(np.float32))
        loss = ce_label_smoothing(model.forward(x, training=True), np.array([0, 1, 2, 3]), 0.1)
        assert nodes[-1] is loss
        self.check(nodes, taped=True)
        backward(loss)

    def test_tape_free_xt_forward(self, monkeypatch):
        model = build_model(model_config("xT"), seed=0)
        nodes = self.recorded(monkeypatch)
        logits = model.forward(Tensor(np.zeros((1, 3, 224, 224), np.float32)), training=False)
        assert nodes[-1] is logits
        self.check(nodes, taped=False)
