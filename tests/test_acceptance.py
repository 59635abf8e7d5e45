"""Acceptance suite: one test per release criterion, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np
import pytest

from mvformer.analysis import cost_report, normalize_image_grid
from mvformer.checkpoint import load_checkpoint, save_checkpoint
from mvformer.cli import main
from mvformer.data import SyntheticDataset
from mvformer.gradcheck import run_checks
from mvformer.imageio import read_ppm, write_ppm
from mvformer.mixer import make_stage_spec
from mvformer.model import build_model, model_config
from mvformer.norm import MultiViewNorm, PlainNorm
from mvformer.optim import AdamW
from mvformer.tensor import Tensor
from mvformer.training import (
    TrainConfig,
    evaluate,
    resolve_data_spec,
    resolve_model_config,
    run_training,
)
from oracles import moments


def report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num:2d}] {status}: {detail}")
    assert passed, f"criterion {num}: {detail}"


TRAIN_CFG = TrainConfig(epochs=14, seed=0)  # well inside the 30-epoch budget


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_run")
    start = time.monotonic()
    history = run_training(TRAIN_CFG, out)
    elapsed = time.monotonic() - start
    return out, history, elapsed


def test_criterion_1_parameter_reproduction():
    targets = {"xT": 17e6, "T": 27e6, "S": 40e6, "B": 57e6}
    details = []
    ok = True
    for preset, target in targets.items():
        start = time.monotonic()
        params = cost_report(model_config(preset), 224).total_params
        elapsed = time.monotonic() - start
        within = abs(params - target) <= 0.02 * target and elapsed < 1.0
        ok &= within
        details.append(f"{preset}={params / 1e6:.2f}M ({elapsed * 1e3:.0f}ms)")
    report(1, ok, "params vs 17/27/40/57M +-2%: " + ", ".join(details))


def test_criterion_2_mac_reproduction():
    targets = {"xT": 2.2e9, "T": 3.9e9, "S": 7.6e9, "B": 12.7e9}
    details = []
    ok = True
    for preset, target in targets.items():
        start = time.monotonic()
        macs = cost_report(model_config(preset), 224).total_macs
        elapsed = time.monotonic() - start
        within = abs(macs - target) <= 0.05 * target and elapsed < 1.0
        ok &= within
        details.append(f"{preset}={macs / 1e9:.2f}G ({elapsed * 1e3:.0f}ms)")
    report(2, ok, "MACs at 224^2 vs 2.2/3.9/7.6/12.7G +-5%: " + ", ".join(details))


def test_criterion_3_mvn_overhead():
    mvn = cost_report(model_config("xT"), 224).total_params
    ln = cost_report(model_config("xT", block_norm="ln"), 224).total_params
    delta = mvn - ln
    ok = abs(delta - 20_000) <= 5_000 and delta > 0
    report(3, ok, f"xT MVN-vs-LN parameter delta = {delta} (target 20000 +- 5000, increasing)")


def test_criterion_4_normalization_statistics():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(1.5, 2.5, size=(8, 16, 16, 16)).astype(np.float32))
    start = time.monotonic()
    worst_mean = worst_var = 0.0
    for kind, axes in (("bn", (0, 2, 3)), ("ln", (1,)), ("in", (2, 3))):
        mu, var = moments(PlainNorm(16, kind).forward(x, training=True), axes)
        worst_mean = max(worst_mean, float(np.abs(mu.data).max()))
        worst_var = max(worst_var, float(np.abs(var.data - 1.0).max()))
    elapsed = time.monotonic() - start
    ok = worst_mean < 1e-5 and worst_var < 1e-3 and elapsed < 1.0
    report(
        4,
        ok,
        f"post-norm |mean| max = {worst_mean:.2e} (< 1e-5), |var-1| max = {worst_var:.2e} "
        f"(< 1e-3), {elapsed * 1e3:.0f}ms",
    )


def test_criterion_5_one_hot_equivalence():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(4, 8, 6, 6)).astype(np.float32))
    results = []
    for kind in ("bn", "ln", "in"):
        layer = MultiViewNorm(8)
        for name in ("alpha_bn", "alpha_ln", "alpha_in"):
            value = 1.0 if name == f"alpha_{kind}" else 0.0
            getattr(layer, name).data = np.full((1, 8, 1, 1), value, dtype=np.float32)
        got = layer.forward(x, training=True).data
        want = PlainNorm(8, kind).forward(x, training=True).data  # at its initial affine
        results.append(np.array_equal(got, want))
    report(5, all(results), f"bitwise one-hot equivalence bn/ln/in = {results}")


def test_criterion_6_gradient_suite():
    start = time.monotonic()
    rows = run_checks("all", seed=0)
    elapsed = time.monotonic() - start
    worst = max(rows, key=lambda r: r[2])
    ok = all(err < 1e-3 for _, _, err in rows) and elapsed < 60.0
    report(
        6,
        ok,
        f"{len(rows)} parameter groups (mvn, mvtm x4 specs, block, micro model); "
        f"worst {worst[0]}.{worst[1]} = {worst[2]:.2e} (< 1e-3), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_7_stage_spec_table():
    expected = {
        1: ((2, 2, 0), 55, True),
        2: ((1, 2, 1), 27, True),
        3: ((1, 2, 1), 13, True),
        4: ((0, 2, 2), 7, False),
    }
    ok = True
    for stage, (ratio, kernel, decomposed) in expected.items():
        for c in (8, 64, 128, 320, 512):
            spec = make_stage_spec(stage, c)
            unit = spec.expanded // 4
            ok &= (spec.dim_local, spec.dim_inter, spec.dim_global) == tuple(r * unit for r in ratio)
            ok &= spec.global_kernel == kernel and spec.decomposed == decomposed
    report(7, ok, "splits 50:50:0 / 25:50:25 / 25:50:25 / 0:50:50; kernels 55/27/13 decomposed, 7x7 square")


def test_criterion_8_toy_training(micro_run):
    _, history, elapsed = micro_run
    final = history[-1]
    ok = final.train_acc >= 0.90 and final.val_acc >= 0.80 and elapsed < 600.0
    report(
        8,
        ok,
        f"micro model, {TRAIN_CFG.epochs} epochs (<= 30): train_acc = {final.train_acc:.3f} "
        f"(>= 0.90), val_acc = {final.val_acc:.3f} (>= 0.80), {elapsed:.0f}s (< 600s)",
    )


def test_criterion_9_visualization_pipeline(tmp_path):
    rng = np.random.default_rng(2)
    inputs = []
    for i in range(2):
        path = tmp_path / f"img{i}.ppm"
        write_ppm(path, rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
        inputs.append(str(path))
    out = tmp_path / "grid"
    rc = main(["norm-image", "--in", *inputs, "--weights", "0.36,0.62,0.02", "--out", str(out)])
    files_ok = rc == 0
    for stem in ("img0", "img1"):
        for kind in ("bn", "ln", "in", "mvn"):
            img = read_ppm(out / f"{stem}_{kind}.ppm")  # raises unless valid P6
            files_ok &= img.shape == (16, 16, 3)

    batch = np.stack(
        [read_ppm(p).transpose(2, 0, 1).astype(np.float32) / 255.0 for p in inputs]
    )
    grid = normalize_image_grid(batch, (0.36, 0.62, 0.02))
    want = (
        np.float32(0.36) * grid.bn + np.float32(0.62) * grid.ln + np.float32(0.02) * grid.inorm
    )
    sum_ok = np.abs(grid.composite - want).max() < 1e-6

    one_hot = tmp_path / "onehot"
    rc2 = main(["norm-image", "--in", *inputs, "--weights", "0,1,0", "--out", str(one_hot)])
    onehot_ok = rc2 == 0 and all(
        (one_hot / f"img{i}_ln.ppm").read_bytes() == (one_hot / f"img{i}_mvn.ppm").read_bytes()
        for i in range(2)
    )
    report(
        9,
        files_ok and sum_ok and onehot_ok,
        f"4 valid P6 files per input; composite == weighted sum (max dev "
        f"{np.abs(grid.composite - want).max():.1e} < 1e-6); one-hot == single norm bytes",
    )


def test_criterion_10_persistence(micro_run, tmp_path):
    out, history, _ = micro_run
    cfg = resolve_model_config(TRAIN_CFG)
    dataset = SyntheticDataset(resolve_data_spec(TRAIN_CFG))

    model = build_model(cfg, seed=123)
    opt = AdamW(list(model.named_parameters()))
    load_checkpoint(out / "last.ckpt", model, opt)
    acc_before = evaluate(model, dataset, dataset.val_indices, TRAIN_CFG.batch_size)

    resaved = tmp_path / "resaved.ckpt"
    meta = load_checkpoint(out / "last.ckpt", model, opt)
    save_checkpoint(resaved, model, opt, meta)
    bitwise = resaved.read_bytes() == (out / "last.ckpt").read_bytes()

    model2 = build_model(cfg, seed=321)
    opt2 = AdamW(list(model2.named_parameters()))
    load_checkpoint(resaved, model2, opt2)
    acc_after = evaluate(model2, dataset, dataset.val_indices, TRAIN_CFG.batch_size)
    ok = bitwise and acc_before == acc_after == history[-1].val_acc
    report(
        10,
        ok,
        f"load->save byte-identical = {bitwise}; eval pre/post = {acc_before}/{acc_after} "
        f"(training final = {history[-1].val_acc})",
    )


def test_criterion_11_determinism(tmp_path):
    cfg = TrainConfig(epochs=3, batch_size=32, warmup_epochs=1, train_size=128, val_size=64, seed=7)
    run_training(cfg, tmp_path / "a")
    run_training(cfg, tmp_path / "b")
    same = {
        name: (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("metrics.csv", "last.ckpt", "best.ckpt")
    }
    report(11, all(same.values()), f"byte-identical across two seeded runs: {same}")
