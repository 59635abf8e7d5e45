"""Token-mixer tests: stage table, ablations, decomposed kernels, composition."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conv2d_oracle, max_rel_err, trunc_normal_oracle
from mvformer.mixer import (
    _INIT_CHUNK,
    ABLATION_MODES,
    ConfigError,
    StarReLU,
    TokenMixer,
    _trunc_normal,
    ablate_spec,
    make_stage_spec,
    star_relu,
)
from mvformer.tensor import Tensor, backward, conv2d, square, tsum


class TestStarRelu:
    def test_dead_branch_is_bias(self):
        x = Tensor(np.linspace(-5, 0, 8, dtype=np.float32).reshape(1, 2, 2, 2))
        out = star_relu(x, Tensor.scalar(1.7), Tensor.scalar(-0.25))
        assert np.allclose(out.data, -0.25)

    def test_unit_case(self):
        out = star_relu(Tensor.scalar(1.0), Tensor.scalar(1.0), Tensor.scalar(0.0))
        assert out.data.reshape(()) == 1.0

    def test_default_constants(self):
        layer = StarReLU()
        out = layer.forward(Tensor.scalar(2.0))
        assert out.data.reshape(()) == pytest.approx(0.8944 * 4.0 - 0.4472, abs=1e-6)
        assert out.data.reshape(()) == pytest.approx(3.1304, abs=1e-4)
        assert layer.num_params() == 2


class TestTruncNormal:
    @pytest.mark.parametrize("seed", [0, 1, 4242])
    @pytest.mark.parametrize(
        "shape,std",
        [
            ((64, 8, 1, 1), 0.02),
            ((320, 1, 7, 7), 0.02),
            ((3, 5), 1.0),
            ((1,), 0.5),
            # across the init chunk boundary: one chunk + 1, an exact multiple, xT's largest weights
            ((_INIT_CHUNK + 1,), 0.02),
            ((4, _INIT_CHUNK // 2, 1, 1), 0.02),
            ((2048, 512, 1, 1), 0.02),
            ((3, _INIT_CHUNK + 7), 1.0),  # ~4.6% of draws land outside 2 std: thousands of redraws
        ],
    )
    def test_matches_oracle_and_generator_state(self, seed, shape, std):
        fast_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _trunc_normal(fast_rng, shape, std)
        want = trunc_normal_oracle(oracle_rng, shape, std)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.abs(got).max() <= 2 * std
        assert fast_rng.bit_generator.state == oracle_rng.bit_generator.state


class TestStageSpec:
    # the stage-specific table: share of the expanded width and global kernel
    @pytest.mark.parametrize(
        "stage,c,dims,kernel,pad,decomposed",
        [
            (1, 64, (64, 64, 0), 55, 27, True),
            (2, 128, (64, 128, 64), 27, 13, True),
            (3, 320, (160, 320, 160), 13, 6, True),
            (4, 512, (0, 512, 512), 7, 3, False),
        ],
    )
    def test_reference_geometry(self, stage, c, dims, kernel, pad, decomposed):
        spec = make_stage_spec(stage, c)
        assert (spec.dim_local, spec.dim_inter, spec.dim_global) == dims
        assert spec.global_kernel == kernel
        assert spec.global_kernel // 2 == pad
        assert spec.decomposed == decomposed
        assert spec.dim_local + spec.dim_inter + spec.dim_global == spec.expanded

    @pytest.mark.parametrize("c", [8, 64, 128, 320, 512, 576])
    def test_ratios_reduce_to_table(self, c):
        ratios = {1: (2, 2, 0), 2: (1, 2, 1), 3: (1, 2, 1), 4: (0, 2, 2)}
        for stage, (rl, ri, rg) in ratios.items():
            spec = make_stage_spec(stage, c)
            unit = spec.expanded // 4
            assert (spec.dim_local, spec.dim_inter, spec.dim_global) == (
                rl * unit,
                ri * unit,
                rg * unit,
            )

    def test_bad_inputs_rejected(self):
        with pytest.raises(ConfigError, match="stage"):
            make_stage_spec(5, 64)
        with pytest.raises(ConfigError, match="divisible"):
            make_stage_spec(1, 3)


class TestAblations:
    def test_drop_local_stage1(self):
        spec = ablate_spec(make_stage_spec(1, 64), "drop-local")
        assert (spec.dim_local, spec.dim_inter, spec.dim_global) == (0, 128, 0)

    def test_no_stage_split_stage1(self):
        spec = ablate_spec(make_stage_spec(1, 64), "no-stage-split")
        assert (spec.dim_local, spec.dim_inter, spec.dim_global) == (32, 64, 32)
        assert spec.global_kernel == 55  # size untouched by the split ablation

    def test_drop_intermediate_doubles_outer_shares(self):
        spec = ablate_spec(make_stage_spec(2, 128), "drop-intermediate")
        assert (spec.dim_local, spec.dim_inter, spec.dim_global) == (128, 0, 128)

    def test_drop_global_feeds_intermediate(self):
        spec = ablate_spec(make_stage_spec(4, 512), "drop-global")
        assert (spec.dim_local, spec.dim_inter, spec.dim_global) == (0, 1024, 0)

    def test_no_stage_global_uses_stage3_size(self):
        for stage in (1, 2, 3, 4):
            spec = ablate_spec(make_stage_spec(stage, 64), "no-stage-global")
            assert (spec.global_kernel, spec.decomposed) == (13, True)

    def test_no_stage_both_composes(self):
        spec = ablate_spec(make_stage_spec(4, 512), "no-stage-both")
        unit = spec.expanded // 4
        assert (spec.dim_local, spec.dim_inter, spec.dim_global) == (unit, 2 * unit, unit)
        assert spec.global_kernel == 13

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="unknown ablation"):
            ablate_spec(make_stage_spec(1, 64), "drop-everything")


class TestDecomposedConv:
    """The global group's factorized filter: a k x 1 then a 1 x k depthwise ``conv2d``."""

    @staticmethod
    def k1_then_1k(x, wh, wv):
        k, groups = wh.shape[2], x.shape[1]
        return conv2d(conv2d(x, wh, pad=(k // 2, 0), groups=groups), wv, pad=(0, k // 2), groups=groups)

    def test_unit_impulse_kernels_identity(self):
        rng = np.random.default_rng(0)
        c, k = 3, 5
        x = Tensor(rng.normal(size=(2, c, 6, 6)).astype(np.float32))
        wh = np.zeros((c, 1, k, 1), dtype=np.float32)
        wh[:, 0, k // 2, 0] = 1.0
        wv = np.zeros((c, 1, 1, k), dtype=np.float32)
        wv[:, 0, 0, k // 2] = 1.0
        out = self.k1_then_1k(x, Tensor(wh), Tensor(wv))
        np.testing.assert_allclose(out.data, x.data, atol=1e-6)

    def test_ones_kernels_on_impulse_make_plateau(self):
        x = np.zeros((1, 1, 7, 7), dtype=np.float32)
        x[0, 0, 3, 3] = 1.0
        wh = Tensor(np.ones((1, 1, 3, 1), dtype=np.float32))
        wv = Tensor(np.ones((1, 1, 1, 3), dtype=np.float32))
        out = self.k1_then_1k(Tensor(x), wh, wv).data[0, 0]
        want = np.zeros((7, 7), dtype=np.float32)
        want[2:5, 2:5] = 1.0
        assert np.array_equal(out, want)

    def test_equals_outer_product_square_kernel(self):
        rng = np.random.default_rng(1)
        c, k = 4, 7
        x = rng.normal(size=(2, c, 9, 9)).astype(np.float32)
        col = rng.normal(size=(c, k)).astype(np.float32)
        row = rng.normal(size=(c, k)).astype(np.float32)
        wh = Tensor(col.reshape(c, 1, k, 1))
        wv = Tensor(row.reshape(c, 1, 1, k))
        got = self.k1_then_1k(Tensor(x), wh, wv).data
        square_kernel = np.einsum("cu,cv->cuv", col, row).reshape(c, 1, k, k)
        want = conv2d_oracle(
            x.astype(np.float64), square_kernel, pad=(k // 2, k // 2), groups=c
        )
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            dataclasses.replace(make_stage_spec(1, 64), global_kernel=12)


# every stage, unablated (id: the stage) and under each ablation
STAGE_MODES = [pytest.param(stage, None, id=str(stage)) for stage in (1, 2, 3, 4)] + [
    pytest.param(stage, mode, id=f"{stage}-{mode}") for mode in ABLATION_MODES for stage in (1, 2, 3, 4)
]


def stage_spec(stage, channels, mode):
    spec = make_stage_spec(stage, channels)
    return spec if mode is None else ablate_spec(spec, mode)


def mixer_param_count(spec):
    """Closed-form parameter count, written independently of the counters."""
    c, e = spec.channels, spec.expanded
    count = e * c + e  # pw1
    count += 2  # StarReLU scale and bias
    count += spec.dim_local * 9 + (spec.dim_local if spec.dim_local else 0)
    count += spec.dim_inter * 49 + (spec.dim_inter if spec.dim_inter else 0)
    if spec.dim_global:
        taps = 2 * spec.global_kernel if spec.decomposed else spec.global_kernel**2
        count += spec.dim_global * taps + spec.dim_global
    count += c * e + c  # pw2
    return count


class TestTokenMixer:
    @pytest.mark.parametrize("stage,mode", STAGE_MODES)
    def test_param_count_closed_form(self, stage, mode):
        rng = np.random.default_rng(stage)
        spec = stage_spec(stage, 16, mode)
        mixer = TokenMixer(spec, rng)
        assert mixer.num_params() == mixer_param_count(spec)

    def test_zero_group_owns_no_kernels(self):
        rng = np.random.default_rng(2)
        mixer = TokenMixer(make_stage_spec(4, 8), rng)  # no local share at stage 4
        names = {n for n, _ in mixer.named_parameters()}
        assert not any("local" in n for n in names)
        mixer1 = TokenMixer(make_stage_spec(1, 8), rng)  # no global share at stage 1
        names1 = {n for n, _ in mixer1.named_parameters()}
        assert not any("global" in n for n in names1)

    def test_zero_input_zero_biases_gives_zero(self):
        rng = np.random.default_rng(3)
        mixer = TokenMixer(make_stage_spec(2, 8), rng)
        mixer.act.bias.data = np.zeros((1, 1, 1, 1), dtype=np.float32)
        out = mixer.forward(Tensor(np.zeros((2, 8, 5, 5), dtype=np.float32)))
        assert np.allclose(out.data, 0.0)

    @pytest.mark.parametrize("stage,mode", STAGE_MODES)
    def test_composition_oracle(self, stage, mode):
        """Layer-by-layer numpy reference reproduces the whole forward."""
        rng = np.random.default_rng(10 + stage)
        spec = stage_spec(stage, 8, mode)
        mixer = TokenMixer(spec, rng)
        x = rng.normal(size=(2, 8, 6, 6)).astype(np.float32)
        for name, p in mixer.named_parameters():  # non-zero biases, so each must sit on its own conv
            if name.endswith("_b"):
                p.tensor.data = rng.normal(0, 0.5, p.tensor.shape).astype(np.float32)
        w = {name: p.data for name, p in mixer.named_parameters()}

        y = conv2d_oracle(x, w["pw1_w"], w["pw1_b"].reshape(-1))
        s = mixer.act.scale.data.reshape(())
        b = mixer.act.bias.data.reshape(())
        y = s * np.maximum(y, 0.0) ** 2 + b
        lo = 0
        parts = []
        for dim, kind in ((spec.dim_local, "local"), (spec.dim_inter, "inter"), (spec.dim_global, "global")):
            chunk = y[:, lo : lo + dim]
            lo += dim
            if dim == 0:
                continue
            bias = w[f"{kind}_b"].reshape(-1)
            if kind == "local":
                parts.append(conv2d_oracle(chunk, w["local_w"], bias, pad=(1, 1), groups=dim))
            elif kind == "inter":
                parts.append(conv2d_oracle(chunk, w["inter_w"], bias, pad=(3, 3), groups=dim))
            elif spec.decomposed:
                k = spec.global_kernel
                half = conv2d_oracle(chunk, w["global_wh"], pad=(k // 2, 0), groups=dim)
                parts.append(conv2d_oracle(half, w["global_wv"], bias, pad=(0, k // 2), groups=dim))
            else:
                k = spec.global_kernel
                parts.append(conv2d_oracle(chunk, w["global_w"], bias, pad=(k // 2, k // 2), groups=dim))
        y = np.concatenate(parts, axis=1)
        want = conv2d_oracle(y, w["pw2_w"], w["pw2_b"].reshape(-1))

        got = mixer.forward(Tensor(x)).data
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-6)

    def test_squared_input_fixed_point(self):
        """Inverse channel maps around identity mixing square the input."""
        rng = np.random.default_rng(20)
        c = 4
        spec = make_stage_spec(2, c)
        mixer = TokenMixer(spec, rng)
        e = spec.expanded
        # pw1 stacks [I; I], pw2 averages the two halves back: pw2 @ pw1 = I
        pw1 = np.concatenate([np.eye(c), np.eye(c)], axis=0).astype(np.float32)
        pw2 = 0.5 * np.concatenate([np.eye(c), np.eye(c)], axis=1).astype(np.float32)
        mixer.pw1_w.data = pw1.reshape(e, c, 1, 1)
        mixer.pw1_b.data = np.zeros((1, e, 1, 1), dtype=np.float32)
        mixer.pw2_w.data = pw2.reshape(c, e, 1, 1)
        mixer.pw2_b.data = np.zeros((1, c, 1, 1), dtype=np.float32)
        mixer.act.scale.data = np.ones((1, 1, 1, 1), dtype=np.float32)
        mixer.act.bias.data = np.zeros((1, 1, 1, 1), dtype=np.float32)
        params = {name: p.tensor for name, p in mixer.named_parameters()}
        k = spec.global_kernel
        # each depthwise kernel a centred unit impulse, each depthwise bias zero
        centers = {"local_w": (1, 1), "inter_w": (3, 3), "global_wh": (k // 2, 0), "global_wv": (0, k // 2)}
        for name, center in centers.items():
            w = params[name]
            w.data = np.zeros_like(w.data)
            w.data[:, 0, center[0], center[1]] = 1.0
        for name in ("local_b", "inter_b", "global_b"):
            params[name].data = np.zeros_like(params[name].data)

        x = rng.uniform(0.0, 1.0, size=(2, c, 5, 5)).astype(np.float32)
        out = mixer.forward(Tensor(x)).data
        np.testing.assert_allclose(out, x**2, rtol=1e-5, atol=1e-6)

    @given(st.integers(1, 4), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_shape_preserved_everywhere(self, stage, h, w):
        rng = np.random.default_rng(stage * 1000 + h * 10 + w)
        mixer = TokenMixer(make_stage_spec(stage, 4), rng)
        x = Tensor(rng.normal(size=(1, 4, h, w)).astype(np.float32))
        assert mixer.forward(x).shape == x.shape

    def test_wrong_width_rejected(self):
        rng = np.random.default_rng(4)
        mixer = TokenMixer(make_stage_spec(1, 8), rng)
        with pytest.raises(ConfigError, match="channels"):
            mixer.forward(Tensor(np.ones((1, 6, 4, 4))))

    @pytest.mark.parametrize("stage", [1, 4])
    def test_gradients_match_finite_differences(self, stage):
        rng = np.random.default_rng(30 + stage)
        mixer = TokenMixer(make_stage_spec(stage, 8), rng).cast_(np.float64)
        for _, p in mixer.named_parameters():
            p.tensor.data = rng.normal(0, 0.3, p.tensor.shape)
        x = Tensor(rng.uniform(-1, 1, size=(2, 8, 5, 5)))

        def loss():
            return tsum(square(mixer.forward(x)))

        backward(loss())
        sampled = [(n, p) for n, p in mixer.named_parameters()]
        check_rng = np.random.default_rng(99)
        for name, p in sampled:
            flat = p.tensor.data.reshape(-1)
            idxs = check_rng.choice(flat.size, size=min(3, flat.size), replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + 1e-3
                up = loss().item()
                flat[i] = orig - 1e-3
                down = loss().item()
                flat[i] = orig
                num = (up - down) / 2e-3
                a = float(p.tensor.grad.reshape(-1)[i])
                assert max_rel_err(np.array(a), np.array(num)) < 1e-3, name
