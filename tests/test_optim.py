"""Optimizer arithmetic, schedule shape, and decay-exemption flags."""

import math
import tracemalloc

import numpy as np
import pytest

from mvformer.checkpoint import load_checkpoint, save_checkpoint
from mvformer.model import build_model, model_config
from mvformer.module import Module
from mvformer.optim import AdamW, NumericsError, OptimizerStoreError, cosine_lr
from oracles import adamw_oracle


class OneParam(Module):
    def __init__(self, value, decay=True):
        super().__init__()
        self.w = self.param("w", np.full((1, 1, 1, 1), value), decay=decay)


class TestAdamW:
    def test_zero_grad_zero_decay_unchanged(self):
        mod = OneParam(1.5)
        opt = AdamW(list(mod.named_parameters()), weight_decay=0.0)
        mod.w.grad = None
        opt.step(0.1)
        assert mod.w.data.reshape(()) == 1.5
        mod.w.grad = np.zeros((1, 1, 1, 1), dtype=np.float32)
        opt.step(0.1)
        assert mod.w.data.reshape(()) == 1.5

    def test_single_step_unit_update(self):
        mod = OneParam(1.0)
        opt = AdamW(list(mod.named_parameters()), weight_decay=0.0)
        mod.w.grad = np.ones((1, 1, 1, 1), dtype=np.float32)
        opt.step(0.1)
        # bias-corrected first step moves by ~lr regardless of the grad scale
        assert mod.w.data.reshape(()) == pytest.approx(0.9, abs=1e-6)

    def test_decoupled_decay_factor(self):
        mod = OneParam(1.0)
        opt = AdamW(list(mod.named_parameters()), weight_decay=0.05)
        mod.w.grad = np.zeros((1, 1, 1, 1), dtype=np.float32)
        opt.step(0.1)
        assert mod.w.data.reshape(()) == pytest.approx(0.995, abs=1e-7)

    def test_exempt_param_not_decayed(self):
        mod = OneParam(1.0, decay=False)
        opt = AdamW(list(mod.named_parameters()), weight_decay=0.05)
        mod.w.grad = np.zeros((1, 1, 1, 1), dtype=np.float32)
        opt.step(0.1)
        assert mod.w.data.reshape(()) == 1.0

    def test_nan_gradient_aborts_with_name(self):
        mod = OneParam(1.0)
        opt = AdamW(list(mod.named_parameters()))
        mod.w.grad = np.full((1, 1, 1, 1), np.nan, dtype=np.float32)
        with pytest.raises(NumericsError, match="'w'"):
            opt.step(0.1)

    def test_moment_shapes_match_params(self):
        model = build_model(model_config("micro", num_classes=4), seed=0)
        opt = AdamW(list(model.named_parameters()))
        for name, p in opt.named_params:
            assert opt.m[name].shape == p.data.shape
            assert opt.v[name].shape == p.data.shape
        assert opt.step_count == 0

    def test_two_steps_follow_reference_formula(self):
        # independent recomputation of two Adam steps on a scalar
        mod = OneParam(0.5)
        opt = AdamW(list(mod.named_parameters()), weight_decay=0.0)
        grads = [0.3, -0.7]
        expect = 0.5
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            expect -= 0.05 * mhat / (math.sqrt(vhat) + 1e-8)
            mod.w.grad = np.full((1, 1, 1, 1), g, dtype=np.float32)
            opt.step(0.05)
        assert mod.w.data.reshape(()) == pytest.approx(expect, rel=1e-5)


def micro_model(dtype=np.float32):
    return build_model(model_config("micro", num_classes=4), seed=0).cast_(dtype)


def random_grads(opt, rng, dtype=np.float32):
    """A gradient per parameter, each at its own scale between 1e-6 and 10."""
    return {
        name: (rng.standard_normal(p.data.shape) * 10.0 ** rng.uniform(-6, 1)).astype(dtype)
        for name, p in opt.named_params
    }


def set_grads(opt, grads):
    for name, p in opt.named_params:
        p.tensor.grad = None if grads[name] is None else grads[name].copy()


class TestFlatStep:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    def test_bitwise_equal_to_loop_oracle(self, tmp_path, dtype, weight_decay):
        fast = AdamW(list(micro_model(dtype).named_parameters()), weight_decay=weight_decay)
        ref = AdamW(list(micro_model(dtype).named_parameters()), weight_decay=weight_decay)
        assert {p.decay for _, p in fast.named_params} == {True, False}
        names = [name for name, _ in fast.named_params]
        no_grad = names[len(names) // 2]
        rng = np.random.default_rng(4)
        for step in range(24):
            grads = random_grads(fast, rng, dtype)
            grads[no_grad] = None
            set_grads(fast, grads)
            set_grads(ref, grads)
            lr = cosine_lr(step, 24, 4, 2e-3)
            fast.step(lr)
            adamw_oracle(ref, lr)
        assert fast.step_count == ref.step_count == 24
        for (name, a), (_, b) in zip(fast.named_params, ref.named_params):
            assert a.data.dtype == b.data.dtype == dtype
            assert a.data.tobytes() == b.data.tobytes(), name
            assert fast.m[name].tobytes() == ref.m[name].tobytes(), name
            assert fast.v[name].tobytes() == ref.v[name].tobytes(), name
        save_checkpoint(tmp_path / "fast.ckpt", micro_model(dtype), fast)
        save_checkpoint(tmp_path / "ref.ckpt", micro_model(dtype), ref)
        assert (tmp_path / "fast.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()

    def test_nonfinite_step_changes_nothing(self):
        opt = AdamW(list(micro_model().named_parameters()))
        rng = np.random.default_rng(2)
        set_grads(opt, random_grads(opt, rng))
        opt.step(1e-3)
        # an exempt parameter first in registration order, a decayed one after it:
        # the flat store lays the decayed one out first
        names = [name for name, _ in opt.named_params]
        decay = {name: p.decay for name, p in opt.named_params}
        first = next(n for n in names if not decay[n])
        later = next(n for n in names[names.index(first):] if decay[n])
        grads = random_grads(opt, rng)
        grads[first].flat[0] = np.inf
        grads[later].flat[-1] = np.nan
        set_grads(opt, grads)
        before = {n: (p.data.copy(), opt.m[n].copy(), opt.v[n].copy()) for n, p in opt.named_params}
        with pytest.raises(NumericsError, match=f"parameter '{first}'"):
            opt.step(1e-3)
        assert opt.step_count == 1
        for name, p in opt.named_params:
            data, m, v = before[name]
            assert np.array_equal(p.data, data) and np.array_equal(opt.m[name], m), name
            assert np.array_equal(opt.v[name], v), name

    def test_moments_are_views_of_one_store(self):
        opt = AdamW(list(micro_model().named_parameters()))
        set_grads(opt, random_grads(opt, np.random.default_rng(0)))
        views = {name: (opt.m[name], opt.v[name]) for name, _ in opt.named_params}
        opt.step(1e-3)
        for name, (m, v) in views.items():
            assert opt.m[name] is m and opt.v[name] is v
            assert m.any() and v.any(), name

    def test_params_stay_views_of_one_store(self):
        opt = AdamW(list(micro_model().named_parameters()))
        held = {name: p.data for name, p in opt.named_params}
        store = held[opt.named_params[0][0]].base
        assert store is not None and store.size == sum(a.size for a in held.values())
        rng = np.random.default_rng(5)
        for _ in range(3):
            set_grads(opt, random_grads(opt, rng))
            opt.step(1e-3)
            for name, p in opt.named_params:
                assert p.data is held[name] and p.data.base is store, name

    def test_rebound_param_rejected_and_nothing_changes(self, tmp_path):
        # a rebind that keeps dtype and shape must be caught too: the store no longer reaches it
        model = micro_model()
        opt = AdamW(list(model.named_parameters()))
        rng = np.random.default_rng(6)
        older = tmp_path / "older.ckpt"
        save_checkpoint(older, model, opt)
        set_grads(opt, random_grads(opt, rng))
        opt.step(1e-3)
        name, p = opt.named_params[7]
        p.tensor.data = p.data.copy()
        set_grads(opt, random_grads(opt, rng))
        before = tmp_path / "before.ckpt"
        save_checkpoint(before, model, opt)
        with pytest.raises(OptimizerStoreError, match=f"parameter '{name}' is float32"):
            opt.step(1e-3)
        with pytest.raises(OptimizerStoreError, match=f"parameter '{name}' is float32"):
            load_checkpoint(older, model, opt)
        after = tmp_path / "after.ckpt"
        save_checkpoint(after, model, opt)
        assert opt.step_count == 1
        assert after.read_bytes() == before.read_bytes()

    def test_steady_step_allocates_under_half_the_store(self):
        opt = AdamW(list(micro_model().named_parameters()))
        set_grads(opt, random_grads(opt, np.random.default_rng(7)))
        opt.step(1e-3)
        store_bytes = sum(p.data.nbytes for _, p in opt.named_params)
        tracemalloc.start()
        try:
            opt.step(1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < store_bytes / 2, (peak, store_bytes)

    @pytest.mark.parametrize("bad", [(np.nan,), (np.inf,), (-np.inf,), (np.inf, -np.inf)])
    def test_nonfinite_entry_names_first_parameter(self, bad):
        # the entries may cancel in a sum (inf - inf), or sit in one parameter
        opt = AdamW(list(micro_model().named_parameters()))
        grads = random_grads(opt, np.random.default_rng(8))
        names = [name for name, _ in opt.named_params]
        for name, value in zip(names[5::9], bad):
            grads[name].flat[-1] = value
        set_grads(opt, grads)
        with pytest.raises(NumericsError, match=f"parameter '{names[5]}'"):
            opt.step(1e-3)
        assert opt.step_count == 0

    def test_finite_gradient_whose_sum_overflows_steps(self):
        opt = AdamW(list(micro_model().named_parameters()))
        grads = random_grads(opt, np.random.default_rng(9))
        for name, _ in opt.named_params[:4]:
            grads[name].flat[0] = np.finfo(np.float32).max
        set_grads(opt, grads)
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.concatenate(list(grads.values()), axis=None).sum())
            opt.step(1e-3)
        assert opt.step_count == 1

    def test_steady_step_allocates_no_gradient_mask(self):
        # an elementwise finiteness mask of the flat gradient would be one byte per entry
        opt = AdamW(list(micro_model().named_parameters()))
        set_grads(opt, random_grads(opt, np.random.default_rng(10)))
        opt.step(1e-3)
        entries = sum(p.data.size for _, p in opt.named_params)
        tracemalloc.start()
        try:
            opt.step(1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < entries / 4, (peak, entries)

    def test_param_dtype_change_is_named_error(self):
        model = micro_model()
        opt = AdamW(list(model.named_parameters()))
        model.cast_(np.float64)
        with pytest.raises(OptimizerStoreError, match="parameter 'head_fc1_w' is float64"):
            opt.step(1e-3)
        assert opt.step_count == 0

    def test_mixed_dtypes_rejected(self):
        model = micro_model()
        first = next(p for _, p in model.named_parameters())
        first.tensor.data = first.data.astype(np.float64)
        with pytest.raises(OptimizerStoreError, match="mix dtypes"):
            AdamW(list(model.named_parameters()))


class TestDecayFlags:
    def test_exemptions_cover_norms_scales_and_biases(self):
        model = build_model(model_config("micro", num_classes=4), seed=0)
        for name, p in model.named_parameters():
            leaf = name.rsplit(".", 1)[-1]
            exempt = (
                leaf.startswith(("alpha_", "gamma", "beta", "res_scale"))
                or leaf.endswith("_b")
                or leaf in ("scale", "bias", "b")
            )
            assert p.decay == (not exempt), name

    def test_only_conv_and_dense_weights_decay(self):
        model = build_model(model_config("micro", num_classes=4), seed=0)
        decayed = [n for n, p in model.named_parameters() if p.decay]
        assert decayed
        params = dict(model.named_parameters())
        for name in decayed:
            shape = params[name].data.shape
            assert shape[0] > 1 and shape[1] >= 1  # kernels / channel maps only


class TestCosineSchedule:
    def test_endpoints(self):
        assert cosine_lr(0, 100, 10, 2.0) == 0.0
        assert cosine_lr(10, 100, 10, 2.0) == 2.0
        assert cosine_lr(100, 100, 10, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_decay_midpoint_half(self):
        assert cosine_lr(55, 100, 10, 2.0) == pytest.approx(1.0, abs=1e-9)

    def test_warmup_is_linear(self):
        lrs = [cosine_lr(s, 100, 10, 1.0) for s in range(11)]
        assert np.allclose(np.diff(lrs), 0.1)

    def test_continuity_at_warmup_boundary(self):
        base, warmup, total = 3.0, 7, 50
        gap = abs(cosine_lr(warmup - 1, total, warmup, base) - cosine_lr(warmup, total, warmup, base))
        assert gap <= base / warmup + 1e-12

    def test_no_warmup_starts_at_base(self):
        assert cosine_lr(0, 10, 0, 1.0) == 1.0

    def test_warmup_longer_than_run_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            cosine_lr(0, 10, 10, 1.0)

    def test_step_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            cosine_lr(11, 10, 2, 1.0)

    def test_monotone_decay_after_warmup(self):
        lrs = [cosine_lr(s, 200, 20, 1.0) for s in range(20, 201)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
