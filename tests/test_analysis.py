"""Cost accounting, alpha profiles, and image-normalization composites."""

import tracemalloc

import numpy as np
import pytest

import mvformer.mixer as mixer_mod
import mvformer.model as model_mod
from mvformer.analysis import (
    cost_report,
    display_rescale,
    display_u8,
    dump_alpha_profile,
    normalize_image_grid,
)
from mvformer.model import build_model, model_config
from mvformer.norm import DegenerateInputError, PlainNorm
from mvformer.tensor import Tensor


TABLE_TARGETS = {
    "xT": (17e6, 2.2e9),
    "T": (27e6, 3.9e9),
    "S": (40e6, 7.6e9),
    "B": (57e6, 12.7e9),
}


class TestCounts:
    @pytest.mark.parametrize("preset", ["xT", "T", "S", "B"])
    def test_reference_totals(self, preset):
        params_t, macs_t = TABLE_TARGETS[preset]
        rep = cost_report(model_config(preset), 224)
        assert abs(rep.total_params - params_t) <= 0.02 * params_t
        assert abs(rep.total_macs - macs_t) <= 0.05 * macs_t

    def test_frozen_xt_total(self):
        # every row of xT at 224 (total params 17,000,658) and of micro at 32, as (params, macs)
        golden = {
            ("xT", 224): {
                "embed1": (9472, 29503488), "stage1_blocks": (108296, 331563008),
                "embed2": (74176, 57802752), "stage2_blocks": (418952, 324438016),
                "embed3": (369600, 72253440), "stage3_blocks": (5028496, 980062720),
                "embed4": (1476672, 72253440), "stage4_blocks": (6414344, 313198592),
                "head": (3100650, 3096576),
            },
            ("micro", 32): {
                "embed1": (1184, 75264), "stage1_blocks": (1396, 78848),
                "embed2": (1208, 18432), "stage2_blocks": (4684, 69760),
                "embed3": (4720, 18432), "stage3_blocks": (30248, 115328),
                "embed4": (18656, 18432), "stage4_blocks": (56836, 55424),
                "head": (19340, 18944),
            },
        }
        for (preset, hw), rows in golden.items():
            rep = cost_report(model_config(preset), hw)
            assert {r.name: (r.params, r.macs) for r in rep.rows} == rows, preset
            assert [r.name for r in rep.rows] == list(rows), preset
        assert cost_report(model_config("xT")).total_params == 17_000_658

    def test_holds_no_weights(self):
        # B's float32 weights are about 228 MB; the weightless build holds none of them
        tracemalloc.start()
        try:
            cost_report(model_config("B"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_registry_cross_check_micro(self):
        for ablation in (None, *mixer_mod.ABLATION_MODES):
            cfg = model_config("micro", num_classes=4, ablation=ablation)
            model = build_model(cfg, seed=0)
            assert cost_report(cfg).total_params == model.num_params(), ablation

    def test_registry_cross_check_xt(self):
        cfg = model_config("xT")
        model = build_model(cfg, seed=0)
        assert cost_report(cfg).total_params == model.num_params()

    def test_macs_match_instrumented_forward(self, monkeypatch):
        """Count MACs from the convolutions actually executed, at micro 32x32 (unablated and
        under each ablation) and xT 224x224, through the ``conv2d`` name each caller imports:
        no convolution runs past it.  The weights those convolutions receive must be exactly the
        decayed parameters, the rule ``cost_report`` counts MACs by."""
        counted = [0]
        weights = set()
        real_conv = mixer_mod.conv2d

        def counting_conv(x, w, b=None, stride=1, pad=0, groups=1):
            out = real_conv(x, w, b, stride=stride, pad=pad, groups=groups)
            cout, cin_g, kh, kw = w.shape
            n, _, hout, wout = out.shape
            counted[0] += cout * hout * wout * cin_g * kh * kw
            weights.add(id(w))
            return out

        monkeypatch.setattr(mixer_mod, "conv2d", counting_conv)
        monkeypatch.setattr(model_mod, "conv2d", counting_conv)
        runs = [("micro", 32, None), ("xT", 224, None)] + [("micro", 32, m) for m in mixer_mod.ABLATION_MODES]
        for preset, hw, ablation in runs:
            cfg = model_config(preset, num_classes=4, ablation=ablation)
            model = build_model(cfg, seed=0)
            counted[0] = 0
            weights.clear()
            x = Tensor(np.random.default_rng(0).uniform(0, 1, (1, 3, hw, hw)).astype(np.float32))
            model.forward(x, training=False)
            assert counted[0] == cost_report(cfg, hw).total_macs, (preset, ablation)
            assert weights == {id(p.tensor) for _, p in model.named_parameters() if p.decay}, (preset, ablation)

    def test_block_macs_scale_quadratically_with_resolution(self):
        cfg = model_config("xT")
        at224 = {r.name: r for r in cost_report(cfg, 224).rows}
        at448 = {r.name: r for r in cost_report(cfg, 448).rows}
        for name, row in at448.items():
            if name == "head":
                assert row.macs == at224[name].macs
            else:
                assert row.macs == 4 * at224[name].macs
            assert row.params == at224[name].params

    def test_totals_equal_sum_of_rows(self):
        rep = cost_report(model_config("xT"), 224)
        assert rep.total_params == sum(r.params for r in rep.rows)
        assert rep.total_macs == sum(r.macs for r in rep.rows)
        assert all(r.params >= 0 and r.macs >= 0 for r in rep.rows)

    def test_mvn_overhead_vs_plain_ln(self):
        mvn = cost_report(model_config("xT")).total_params
        ln = cost_report(model_config("xT", block_norm="ln")).total_params
        delta = mvn - ln
        assert 15_000 <= delta <= 25_000  # 0.02M within +-0.005M

    def test_ablation_param_ordering(self):
        full = cost_report(model_config("xT")).total_params
        both = cost_report(model_config("xT", ablation="no-stage-both")).total_params
        assert both < full  # direction of the reference ablation rows
        drop_local = cost_report(model_config("xT", ablation="drop-local")).total_params
        assert drop_local > full  # local share moves to the pricier 7x7 filter
        drop_inter = cost_report(model_config("xT", ablation="drop-intermediate")).total_params
        assert drop_inter < full

    def test_drop_intermediate_removes_7x7_kernels(self):
        base = model_config("micro", num_classes=4)
        ablated = model_config("micro", num_classes=4, ablation="drop-intermediate")

        def seven_by_seven_params(cfg):
            total = 0
            for stage in (1, 2, 3):  # decomposed-global stages: only inter is 7x7
                spec = cfg.stage_spec(stage)
                total += cfg.depths[stage - 1] * spec.dim_inter * 49
            return total

        assert seven_by_seven_params(ablated) < seven_by_seven_params(base)

    def test_csv_output(self, tmp_path):
        rep = cost_report(model_config("micro"), 32)
        path = tmp_path / "costs.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,params,macs"
        assert lines[-1].startswith("total,")


class TestAlphaProfile:
    def test_fresh_model_all_ones(self):
        model = build_model(model_config("micro", num_classes=4), seed=0)
        profile = dump_alpha_profile(model)
        assert len(profile.rows) == 2 * sum(model.cfg.depths)
        for row in profile.rows:
            assert (row.mean_alpha_bn, row.mean_alpha_ln, row.mean_alpha_in) == (1.0, 1.0, 1.0)
            assert row.norm_site in ("mixer", "mlp")

    def test_rows_in_network_order(self):
        model = build_model(model_config("micro", num_classes=4), seed=0)
        rows = dump_alpha_profile(model).rows
        keys = [(r.stage, r.block_index, r.norm_site) for r in rows]
        assert keys[0] == (1, 0, "mixer") and keys[1] == (1, 0, "mlp")
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], 0 if k[2] == "mixer" else 1))

    def test_zeroed_alpha_in_surgery(self):
        model = build_model(model_config("micro", num_classes=4), seed=0)
        for _, _, _, norm in model.mvn_sites():
            norm.alpha_in.data = np.zeros_like(norm.alpha_in.data)
        profile = dump_alpha_profile(model)
        assert all(r.mean_alpha_in == 0.0 for r in profile.rows)
        assert all(r.mean_alpha_bn == 1.0 for r in profile.rows)

    def test_csv_redump_identical(self, tmp_path):
        model = build_model(model_config("micro", num_classes=4), seed=0)
        for _, p in model.named_parameters():
            p.tensor.data = p.tensor.data + np.float32(0.01)  # perturb away from init
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        dump_alpha_profile(model).to_csv(a)
        dump_alpha_profile(model).to_csv(b)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "stage,block_index,norm_site,mean_alpha_bn,mean_alpha_ln,mean_alpha_in"

    def test_plain_norm_model_rejected(self):
        model = build_model(model_config("micro", num_classes=4, block_norm="ln"), seed=0)
        with pytest.raises(ValueError, match="no multi-view"):
            dump_alpha_profile(model)


class TestNormalizeImageGrid:
    def _images(self, n=3, size=16, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(0, 1, (n, 3, size, size)).astype(np.float32)

    def test_composite_is_exact_weighted_sum(self):
        imgs = self._images()
        weights = (0.36, 0.62, 0.02)
        grid = normalize_image_grid(imgs, weights)
        want = (
            np.float32(0.36) * grid.bn + np.float32(0.62) * grid.ln + np.float32(0.02) * grid.inorm
        )
        assert np.array_equal(grid.composite, want)

    def test_equal_weights_average(self):
        imgs = self._images(seed=1)
        grid = normalize_image_grid(imgs, (1 / 3, 1 / 3, 1 / 3))
        np.testing.assert_allclose(
            grid.composite, (grid.bn + grid.ln + grid.inorm) / 3, rtol=1e-5, atol=1e-6
        )

    def test_one_hot_composite_equals_bn_buffer(self):
        imgs = self._images(seed=2)
        grid = normalize_image_grid(imgs, (1.0, 0.0, 0.0))
        assert np.array_equal(grid.composite, grid.bn)

    def test_bn_buffer_matches_norm_op(self):
        imgs = self._images(seed=3)
        grid = normalize_image_grid(imgs, (1.0, 0.0, 0.0))
        want = PlainNorm(3, "bn").forward(Tensor(imgs), training=True).data
        assert np.array_equal(grid.bn, want)

    def test_single_image_rejected(self):
        with pytest.raises(DegenerateInputError, match="2 images"):
            normalize_image_grid(self._images(n=1), (1, 0, 0))

    def test_display_rescale_bounds(self):
        imgs = self._images(seed=4)
        grid = normalize_image_grid(imgs, (0.5, 0.3, 0.2))
        scaled = display_rescale(grid.composite)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        per_image_max = scaled.max(axis=(1, 2, 3))
        assert np.allclose(per_image_max, 1.0)
        u8 = display_u8(grid.composite)
        assert u8.dtype == np.uint8

    def test_flat_image_rescales_to_zero(self):
        flat = np.zeros((2, 3, 4, 4), dtype=np.float32)
        assert np.array_equal(display_rescale(flat), flat)
