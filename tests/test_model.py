"""Model assembly tests: residual wiring, embeddings, determinism, oracles."""

import tracemalloc

import numpy as np
import pytest

import mvformer.mixer as mixer_mod
import mvformer.model as model_mod
from oracles import mul, residual_oracle, star_relu_oracle
from mvformer.gradcheck import DEFAULT_TOLERANCE, check_gradients
from mvformer.mixer import ConfigError, make_stage_spec
from mvformer.model import (
    Block,
    Downsample,
    Mlp,
    ModelConfig,
    build_model,
    drop_path,
    model_config,
)
from mvformer.tensor import Tensor, add, backward, conv2d, global_avg_pool, residual
from mvformer.training import ce_label_smoothing


BUILD_MARGIN = 6 * 2**20  # bytes: buffers, biases and one init chunk; xT's largest weight in float64 is 16 MB


def micro(num_classes=4, **overrides):
    return model_config("micro", num_classes=num_classes, **overrides)


class TestPresets:
    def test_reference_rows(self):
        xt = model_config("xT")
        assert xt.embed_dims == (64, 128, 320, 512)
        assert xt.depths == (2, 2, 4, 2)
        assert xt.drop_path_rate == 0.2
        b = model_config("B")
        assert b.embed_dims == (96, 192, 384, 576)
        assert b.depths == (3, 12, 18, 3)
        s = model_config("S")
        assert s.depths == (3, 12, 18, 3) and s.drop_path_rate == 0.3
        t = model_config("T")
        assert t.depths == (3, 3, 9, 3)

    def test_micro_builds_and_runs(self):
        model = build_model(micro(), seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32))
        logits = model.forward(x, training=False)
        assert logits.shape == (2, 4, 1, 1)
        assert np.isfinite(logits.data).all()

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            model_config("xxl")

    def test_odd_dims_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            ModelConfig(embed_dims=(7, 16, 32, 64), depths=(1, 1, 1, 1))

    @pytest.mark.parametrize(
        "key,value", [("mlp_ratio", 0), ("mlp_ratio", -1), ("num_classes", 0), ("num_classes", -2)]
    )
    def test_non_positive_widths_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be >= 1, got {value}"):
            model_config("micro", **{key: value})

    def test_build_holds_no_float64_init_copies(self):
        # weights are drawn straight into float32: building xT peaks at its parameter bytes plus a
        # few MB, not at the full-size float64 draws (which peaked ~26 MB above them)
        tracemalloc.start()
        try:
            model = build_model(model_config("xT"), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        param_bytes = sum(p.data.nbytes for _, p in model.named_parameters())
        assert peak < param_bytes + BUILD_MARGIN

    def test_drop_ramp_is_linear_over_depth(self):
        cfg = model_config("xT")
        rates = cfg.block_drop_rates()
        assert len(rates) == 10
        assert rates[0] == 0.0
        assert rates[-1] == pytest.approx(0.2)
        diffs = np.diff(rates)
        assert np.allclose(diffs, diffs[0])


class TestMlp:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(0)
        mlp = Mlp(4, 2, rng)
        for name in ("fc1_w", "fc1_b", "fc2_w", "fc2_b"):
            getattr(mlp, name).data = np.zeros_like(getattr(mlp, name).data)
        mlp.act.bias.data = np.zeros((1, 1, 1, 1), dtype=np.float32)
        out = mlp.forward(Tensor(rng.normal(size=(2, 4, 3, 3)).astype(np.float32)))
        assert np.allclose(out.data, 0.0)

    def test_identity_maps_square_nonnegative_input(self):
        rng = np.random.default_rng(1)
        c, r = 3, 2
        mlp = Mlp(c, r, rng)
        mlp.fc1_w.data = np.concatenate([np.eye(c), np.zeros((c, c))]).astype(np.float32).reshape(r * c, c, 1, 1)
        mlp.fc1_b.data = np.zeros_like(mlp.fc1_b.data)
        mlp.fc2_w.data = np.concatenate([np.eye(c), np.zeros((c, c))], axis=1).astype(np.float32).reshape(c, r * c, 1, 1)
        mlp.fc2_b.data = np.zeros_like(mlp.fc2_b.data)
        mlp.act.scale.data = np.ones((1, 1, 1, 1), dtype=np.float32)
        mlp.act.bias.data = np.zeros((1, 1, 1, 1), dtype=np.float32)
        x = rng.uniform(0, 1, size=(2, c, 3, 3)).astype(np.float32)
        out = mlp.forward(Tensor(x)).data
        np.testing.assert_allclose(out, x**2, rtol=1e-5, atol=1e-6)


class TestBlock:
    def _block(self, seed=0, res_scale=True):
        rng = np.random.default_rng(seed)
        return Block(make_stage_spec(2, 8), "mvn", 2, res_scale, 0.0, rng)

    def test_zero_branch_outputs_pure_residual(self):
        blk = self._block()
        for mod, names in ((blk.mixer, ("pw2_w", "pw2_b")), (blk.mlp, ("fc2_w", "fc2_b"))):
            for name in names:
                getattr(mod, name).data = np.zeros_like(getattr(mod, name).data)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32))
        out = blk.forward(x, training=True)
        assert np.array_equal(out.data, x.data)

    def test_zero_res_scale_annihilates_branches(self):
        blk = self._block(seed=2)
        blk.res_scale1.data = np.zeros_like(blk.res_scale1.data)
        blk.res_scale2.data = np.zeros_like(blk.res_scale2.data)
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32))
        out = blk.forward(x, training=True)
        assert np.array_equal(out.data, x.data)

    def test_composition_oracle_bitwise(self):
        blk = self._block(seed=4)
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 8, 4, 4)).astype(np.float32))
        got = blk.forward(x, training=True).data
        # hand-composed pipeline through the same sub-layers
        branch = blk.mixer.forward(blk.norm1.forward(x, training=True))
        mid = add(mul(branch, blk.res_scale1), x)
        branch2 = blk.mlp.forward(blk.norm2.forward(mid, training=True))
        want = add(mul(branch2, blk.res_scale2), mid).data
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("res_scale", [True, False])
    def test_forward_is_the_four_steps_in_turn(self, res_scale):
        blk = self._block(seed=6, res_scale=res_scale)
        x = Tensor(np.random.default_rng(7).normal(size=(2, 8, 4, 4)).astype(np.float32))
        mid = blk.mixer_residual(blk.prenorm1(x, training=True), training=True)
        out = blk.mlp_residual(blk.prenorm2(mid, training=True), training=True)
        assert np.array_equal(blk.forward(x, training=True).data, out.data)

    def test_res_scale_absent_when_disabled(self):
        blk = self._block(res_scale=False)
        assert blk.res_scale1 is None and blk.res_scale2 is None
        assert not any("res_scale" in n for n, _ in blk.named_parameters())


class TestDropPath:
    def test_no_mask_outside_training_or_at_zero_rate(self):
        x = Tensor(np.ones((4, 2, 2, 2), dtype=np.float32))
        assert drop_path(x, 0.9, training=False, rng=None) is None
        assert drop_path(x, 0.0, training=True, rng=None) is None

    def test_training_masks_per_sample(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((64, 2, 2, 2), dtype=np.float32))
        mask = drop_path(x, 0.5, training=True, rng=rng)
        assert mask.shape == (64, 1, 1, 1) and mask.dtype == np.float32
        assert np.isin(mask, (0.0, 2.0)).all()
        assert 0.2 < (mask == 0).mean() < 0.8
        out = residual(Tensor(np.zeros_like(x.data)), x, keep=mask).data
        per_sample = out.reshape(64, -1)
        assert ((per_sample == 0).all(axis=1) | (per_sample == 2.0).all(axis=1)).all()

    def test_missing_rng_rejected(self):
        with pytest.raises(ValueError, match="random generator"):
            drop_path(Tensor(np.ones((1, 1, 1, 1))), 0.5, training=True, rng=None)

    @staticmethod
    def _train_step(forward, seed):
        """One micro training forward and backward at drop-path rate 0.5: logits and gradient bytes."""
        model = build_model(micro(drop_path_rate=0.5), seed=10)
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(0, 1, (8, 3, 32, 32)).astype(np.float32))
        logits = forward(model, x, np.random.default_rng(seed))
        backward(ce_label_smoothing(logits, rng.integers(0, 4, 8), 0.1))
        return logits.data.tobytes(), {name: p.grad.tobytes() for name, p in model.named_parameters()}

    def test_masks_drawn_in_network_order(self):
        """The model's masks come from one rng, drawn as a loop written out by hand reads them."""

        def by_hand(model, x, rng):
            for embed, blocks in zip(model.embeds, model.stages):
                if embed.norm is not None:
                    x = embed.norm.forward(x, True)
                x = embed.conv(x)
                for blk in blocks:
                    for norm, branch, scale in ((blk.norm1, blk.mixer, blk.res_scale1),
                                                (blk.norm2, blk.mlp, blk.res_scale2)):  # the mixer's mask first
                        b = branch.forward(norm.forward(x, True))
                        x = residual(x, b, scale, drop_path(b, blk.drop_prob, True, rng))
            return model.head(x, True)

        def forward(model, x, rng):
            return model.forward(x, training=True, rng=rng)

        got = self._train_step(forward, 12)
        assert got == self._train_step(by_hand, 12)
        assert got[0] != self._train_step(forward, 13)[0]  # the masks drop samples


class TestFusedOps:
    """The model on ``tensor.star_relu``/``tensor.residual`` against the unfused oracles."""

    @staticmethod
    def _step(drop_path_rate):
        model = build_model(micro(drop_path_rate=drop_path_rate), seed=3)
        rng = np.random.default_rng(8)
        x = Tensor(rng.uniform(0, 1, (16, 3, 32, 32)).astype(np.float32))
        logits = model.forward(x, training=True, rng=np.random.default_rng(9))
        loss = ce_label_smoothing(logits, rng.integers(0, 4, 16), 0.1)
        backward(loss)
        return loss.data.tobytes(), {name: p.grad.tobytes() for name, p in model.named_parameters()}

    def test_training_step_bitwise_matches_oracles(self, monkeypatch):
        fused = self._step(0.2)
        assert fused[0] != self._step(0.0)[0]  # drop path changed the step
        monkeypatch.setattr(mixer_mod, "star_relu", star_relu_oracle)
        monkeypatch.setattr(model_mod, "residual", residual_oracle)
        assert self._step(0.2) == fused


class TestPatchEmbeds:
    @pytest.mark.parametrize("size,expect", [(224, (56, 28, 14, 7)), (32, (8, 4, 2, 1))])
    def test_spatial_chain(self, size, expect):
        model = build_model(micro(), seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.uniform(0, 1, (1, 3, size, size)).astype(np.float32))
        for stage in (1, 2, 3, 4):
            x = model.embeds[stage - 1].forward(x, training=False)
            assert x.shape[2:] == (expect[stage - 1], expect[stage - 1])

    def test_stride4_constant_interior(self):
        rng = np.random.default_rng(0)
        embed = Downsample(3, 8, 7, 4, 2, None, rng)
        embed.w.data = np.ones_like(embed.w.data)
        embed.b.data = np.zeros_like(embed.b.data)
        x = Tensor(np.full((1, 3, 32, 32), 2.0, dtype=np.float32))
        out = embed.forward(x).data
        assert np.allclose(out[:, :, 1:-1, 1:-1], 2.0 * 3 * 49)

    @pytest.mark.parametrize("training", [True, False])
    def test_forward_is_norm_then_conv(self, training):
        embed = build_model(micro(), seed=0).embeds[1]
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 8, 8)).astype(np.float32))
        got = embed.forward(x, training)
        assert np.array_equal(got.data, embed.conv(embed.norm.forward(x, training)).data)

    def test_too_small_input_raises(self):
        model = build_model(micro(), seed=0)
        x = Tensor(np.ones((1, 3, 2, 2), dtype=np.float32))
        with pytest.raises(Exception, match="too small"):
            model.forward(x, training=False)


class TestModelForward:
    def test_bitwise_deterministic(self):
        model = build_model(micro(), seed=0)
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32))
        a = model.forward(x, training=False).data
        b = model.forward(x, training=False).data
        assert np.array_equal(a, b)

    def test_batch_permutation_oracle(self):
        model = build_model(micro(), seed=0)
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, (4, 3, 32, 32)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        base = model.forward(Tensor(x), training=False).data
        permuted = model.forward(Tensor(x[perm]), training=False).data
        np.testing.assert_array_equal(permuted, base[perm])

    def test_batch_slicing_oracle(self):
        model = build_model(micro(), seed=0)
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (4, 3, 32, 32)).astype(np.float32)
        full = model.forward(Tensor(x), training=False).data
        single = model.forward(Tensor(x[1:2]), training=False).data
        np.testing.assert_allclose(single[0], full[1], atol=1e-5)

    def test_inference_matches_zero_drop_path_build(self):
        dims = dict(seed=7)
        with_dp = build_model(micro(drop_path_rate=0.5), **dims)
        without = build_model(micro(drop_path_rate=0.0), **dims)
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32))
        a = with_dp.forward(x, training=False).data
        b = without.forward(x, training=False).data
        assert np.array_equal(a, b)

    def test_zeroed_branches_leave_affine_path(self):
        """With every residual branch silenced, embeds + head set the logits."""
        model = build_model(micro(), seed=5)
        for blocks in model.stages:
            for blk in blocks:
                blk.mixer.pw2_w.data = np.zeros_like(blk.mixer.pw2_w.data)
                blk.mixer.pw2_b.data = np.zeros_like(blk.mixer.pw2_b.data)
                blk.mlp.fc2_w.data = np.zeros_like(blk.mlp.fc2_w.data)
                blk.mlp.fc2_b.data = np.zeros_like(blk.mlp.fc2_b.data)
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32))
        got = model.forward(x, training=False).data
        # manual pipeline: embeddings then head, no blocks
        y = x
        for stage in (1, 2, 3, 4):
            y = model.embeds[stage - 1].forward(y, training=False)
        y = global_avg_pool(y)
        y = model.head_norm.forward(y, training=False)
        y = conv2d(y, model.head_fc1_w, model.head_fc1_b)
        y = model.head_act.forward(y)
        want = conv2d(y, model.head_fc2_w, model.head_fc2_b)
        # the eval forward links no tape; the same layers called directly do
        assert want.requires_grad and want._parents
        assert np.array_equal(got, want.data)

    def test_eval_forward_records_no_tape(self):
        model = build_model(micro(), seed=0)
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32), requires_grad=True)
        logits = model.forward(x, training=False)
        assert not logits.requires_grad
        assert logits._parents == () and logits._backward is None
        taped = model.forward(x, training=True)
        assert taped.requires_grad and taped._parents

    def test_training_step_after_eval_gradchecks(self):
        model = build_model(micro(), seed=3).cast_(np.float64)
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)))

        def loss():
            return ce_label_smoothing(model.forward(x, training=True), np.array([0, 1]), 0.1)

        model.forward(x, training=False)
        backward(loss())
        assert all(p.grad is not None for _, p in model.named_parameters())
        named = [
            (n, p.tensor)
            for n, p in model.named_parameters()
            if n.startswith(("embed1.", "stage1_block0.norm1.", "stage4_block0.mixer.", "head_"))
        ]
        errors = check_gradients(loss, named, samples_per_param=2, rng=rng)
        assert max(errors.values()) < DEFAULT_TOLERANCE, errors

    def test_res_scale_present_exactly_in_configured_stages(self):
        model = build_model(micro(), seed=0)
        names = {n for n, _ in model.named_parameters()}
        assert "stage3_block0.res_scale1" in names
        assert "stage4_block0.res_scale2" in names
        assert not any(n.startswith(("stage1", "stage2")) and "res_scale" in n for n in names)


class TestBuildDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = build_model(micro(), seed=11)
        b = build_model(micro(), seed=11)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa.data, pb.data), na

    def test_different_seed_differs(self):
        a = build_model(micro(), seed=11)
        b = build_model(micro(), seed=12)
        same = all(
            np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        )
        assert not same

    def test_registry_names_unique(self):
        model = build_model(micro(), seed=0)
        names = [n for n, _ in model.named_parameters()]
        assert len(names) == len(set(names))
