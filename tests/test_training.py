"""Loss closed forms, config parsing, loop determinism, abort handling."""

import dataclasses
import math
import re

import numpy as np
import pytest

import mvformer.norm as norm_mod
import mvformer.training as training
from oracles import ce_oracle, numeric_grad
from mvformer.checkpoint import CheckpointFormatError, load_checkpoint, read_arrays
from mvformer.data import SyntheticDataset, SyntheticSpec
from mvformer.mixer import ABLATION_MODES, ConfigError
from mvformer.model import NORM_KINDS, PRESETS, ModelConfig, build_model, model_config
from mvformer.optim import NumericsError
from mvformer.tensor import Tensor, backward, cross_entropy
from mvformer.training import (
    TrainConfig,
    ce_label_smoothing,
    data_from_meta,
    data_meta,
    evaluate,
    model_from_meta,
    model_meta,
    parse_config,
    parse_config_text,
    parse_data_overrides,
    resolve_data_spec,
    resolve_model_config,
    run_training,
    smoothed_targets,
    train_loop,
)

TINY = dict(epochs=2, batch_size=32, warmup_epochs=1, train_size=96, val_size=48)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((5, 7, 1, 1), dtype=np.float32))
        loss = ce_label_smoothing(logits, np.arange(5) % 7, 0.0)
        assert loss.item() == pytest.approx(math.log(7), rel=1e-6)

    def test_smoothing_keeps_log_k_at_uniform(self):
        logits = Tensor(np.full((4, 10, 1, 1), 3.25, dtype=np.float32))
        loss = ce_label_smoothing(logits, np.zeros(4, dtype=int), 0.1)
        assert loss.item() == pytest.approx(math.log(10), rel=1e-6)

    def test_ideal_logits_drive_loss_to_zero(self):
        targets = np.array([0, 1])
        for margin, bound in [(5.0, 0.02), (20.0, 1e-6)]:
            data = np.zeros((2, 3, 1, 1), dtype=np.float32)
            data[np.arange(2), targets] = margin
            loss = ce_label_smoothing(Tensor(data), targets, 0.0)
            assert loss.item() < bound

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(3, 5, 1, 1)), requires_grad=True)
        targets = np.array([1, 4, 0])

        def loss():
            return ce_label_smoothing(logits, targets, 0.1)

        backward(loss())
        num = numeric_grad(lambda: loss().item(), logits.data)
        denom = np.maximum(np.maximum(np.abs(logits.grad), np.abs(num)), 1e-4)
        assert (np.abs(logits.grad - num) / denom).max() < 1e-3

    @pytest.mark.parametrize("n,k", [(2, 4), (64, 10), (1, 1000), (3, 2)])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_node_equals_composite_bitwise(self, n, k, smoothing, dtype):
        """The loss is one node on the logits, and its value and logits gradient are the unfused
        composite's bytes."""
        rng = np.random.default_rng(n * k)
        data = (4.0 * rng.normal(size=(n, k, 1, 1))).astype(dtype)
        targets = rng.integers(0, k, n)
        q = np.full((n, k, 1, 1), smoothing / k, dtype=dtype)
        q[np.arange(n), targets, 0, 0] += 1.0 - smoothing
        logits, ref = Tensor(data, requires_grad=True), Tensor(data.copy(), requires_grad=True)
        loss, want = ce_label_smoothing(logits, targets, smoothing), ce_oracle(ref, q)
        assert loss._parents == (logits,) and loss.dtype == dtype
        assert loss.data.tobytes() == want.data.tobytes()
        backward(loss)
        backward(want)
        assert logits.grad.dtype == dtype and logits.grad.tobytes() == ref.grad.tobytes()

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_is_cross_entropy_on_smoothed_targets(self, n, dtype):
        rng = np.random.default_rng(n)
        data = rng.normal(size=(n, 5, 1, 1)).astype(dtype)
        targets = rng.integers(0, 5, n)
        q = smoothed_targets(targets, 5, 0.1, dtype)
        assert q.shape == (n, 5, 1, 1) and q.dtype == dtype
        np.testing.assert_allclose(q.sum(axis=1), 1.0, rtol=1e-6)
        logits, ref = Tensor(data, requires_grad=True), Tensor(data.copy(), requires_grad=True)
        loss, want = ce_label_smoothing(logits, targets, 0.1), cross_entropy(ref, q)
        assert loss.data.tobytes() == want.data.tobytes()
        backward(loss)
        backward(want)
        assert logits.grad.tobytes() == ref.grad.tobytes()

    def test_bad_targets_rejected(self):
        logits = Tensor(np.zeros((2, 3, 1, 1)))
        with pytest.raises(IndexError, match="\\[0, 3\\)"):
            ce_label_smoothing(logits, np.array([0, 3]), 0.0)
        with pytest.raises(ValueError, match="classes"):
            ce_label_smoothing(Tensor(np.zeros((2, 1, 1, 1))), np.zeros(2, dtype=int), 0.0)


class TestFreshModelLoss:
    def test_first_batch_loss_near_log_k(self):
        cfg = TrainConfig()
        model = build_model(resolve_model_config(cfg), seed=0)
        ds = SyntheticDataset(resolve_data_spec(cfg))
        images, labels = ds.batch(range(32))
        loss = ce_label_smoothing(model.forward(images, training=True), labels, 0.1)
        assert abs(loss.item() - math.log(4)) <= 0.1 * math.log(4)


class TestConfigFile:
    GOOD = """
# desk-scale run
[model]
preset = micro
norm = mvn

[train]
epochs = 5
batch_size = 16
base_lr = 2e-3
seed = 9

[data]
classes = 4
image_size = 32
"""

    def test_round_trip_fields(self):
        cfg = parse_config_text(self.GOOD)
        assert cfg.preset == "micro" and cfg.epochs == 5
        assert cfg.base_lr == pytest.approx(2e-3)
        assert cfg.seed == 9 and cfg.classes == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'optimiser'"):
            parse_config_text("[train]\noptimiser = sgd\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config_text("[augment]\nmixup = 0.8\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="outside"):
            parse_config_text("epochs = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config_text("[train]\nepochs = many\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[train]\nepochs = 3\nepochs = 5\n", "line 3: duplicate key 'epochs' in [train]"),
            ("[train]\nseed = 1\n[data]\nnoise = 0.1\n[train]\nseed = 1\n", "line 6: duplicate key 'seed' in [train]"),
            ("[model]\nnorm = bn\n\n# again\nnorm = ln\n", "line 5: duplicate key 'norm' in [model]"),
        ],
        ids=["same-section", "section-reopened", "after-comment"],
    )
    def test_duplicate_key_rejected(self, text, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config_text(text)

    def test_warmup_must_fit(self):
        with pytest.raises(ConfigError, match="warmup"):
            TrainConfig(epochs=2, warmup_epochs=2)

    def test_smoothing_range(self):
        with pytest.raises(ConfigError, match="label_smoothing"):
            TrainConfig(label_smoothing=1.0)

    @pytest.mark.parametrize("norm", ["mvn", "bn"])
    def test_batch_statistics_norms_need_two_samples(self, norm):
        with pytest.raises(ConfigError, match="batch_size"):
            TrainConfig(norm=norm, batch_size=1)
        with pytest.raises(ConfigError, match="train_size"):
            TrainConfig(norm=norm, train_size=1)
        TrainConfig(norm="ln", batch_size=1)

    def test_instance_norm_needs_two_positions_at_the_last_stage(self):
        with pytest.raises(ConfigError, match="1x1 map at stage 4"):
            TrainConfig(norm="in")  # 32x32 ends on a 1x1 map
        with pytest.raises(ConfigError, match="1x1 map at stage 4"):
            TrainConfig(norm="in", image_size=34)
        TrainConfig(norm="in", image_size=35)  # ends on 2x2
        TrainConfig(norm="ln")

    @pytest.mark.parametrize("field", ["base_lr", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_optimizer_rates_finite_and_nonnegative(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite and >= 0"):
            TrainConfig(**{field: value})
        TrainConfig(**{field: 0.0})

    def test_empty_training_set_rejected(self):
        with pytest.raises(ConfigError, match="train_size"):
            TrainConfig(norm="ln", train_size=0)

    def test_every_key_round_trips(self):
        # a field in no section could never be set from a file
        sections = [key for keys in training._SECTIONS.values() for key in keys]
        assert sorted(sections) == sorted(f.name for f in dataclasses.fields(TrainConfig))
        cfg = TrainConfig(
            preset="xT", norm="ln", drop_path_rate=0.15, embed_dims=(4, 8, 16, 32), depths=(1, 2, 1, 3),
            epochs=3, batch_size=8, base_lr=2.5e-4, warmup_epochs=1, weight_decay=0.01,
            label_smoothing=0.2, seed=5, classes=3, image_size=40, train_size=20, val_size=10, noise=0.125,
        )
        assert all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(TrainConfig))
        text = "".join(
            f"[{section}]\n" + "".join(f"{key} = {training._format(getattr(cfg, key))}\n" for key in keys)
            for section, keys in training._SECTIONS.items()
        )
        assert parse_config_text(text) == cfg

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + self.GOOD.encode())
        assert parse_config(path) == parse_config_text(self.GOOD)

    def test_undecodable_file_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"[train]\n# \xff\n")
        with pytest.raises(ConfigError, match=re.escape(f"config file {str(path)!r} is not UTF-8 text")):
            parse_config(path)

    def test_dims_override(self):
        cfg = parse_config_text("[model]\npreset = micro\nembed_dims = 4,8,16,32\ndepths = 1,1,1,1\n")
        mc = resolve_model_config(cfg)
        assert mc.embed_dims == (4, 8, 16, 32) and mc.depths == (1, 1, 1, 1)


PLAIN_META = (
    "model.embed_dims=8,16,32,64\nmodel.depths=1,1,2,1\nmodel.mlp_ratio=4\nmodel.num_classes=4\n"
    "model.norm=mvn\nmodel.drop_path_rate=0.0\n"
    "data.classes=4\ndata.image_size=32\ndata.noise=0.05\ndata.seed=7\n"
    "data.train_size=32\ndata.val_size=16\ntrain.seed=7\ntrain.epoch=0\n"
)
ABLATED_META = (
    "model.embed_dims=8,16,32,64\nmodel.depths=1,1,2,1\nmodel.mlp_ratio=4\nmodel.num_classes=3\n"
    "model.norm=ln\nmodel.drop_path_rate=0.1\nmodel.ablation=drop-global\n"
    "data.classes=3\ndata.image_size=40\ndata.noise=0.125\ndata.seed=7\n"
    "data.train_size=32\ndata.val_size=16\ntrain.seed=7\ntrain.epoch=0\n"
)


class TestRunMetadata:
    """The checkpoint's ``meta`` entry is what eval and dump-alphas rebuild a run from."""

    CFG = TrainConfig(epochs=0, warmup_epochs=0, train_size=32, val_size=16, seed=7)

    @pytest.mark.parametrize(
        "mc,spec,expected",
        [
            (resolve_model_config(CFG), resolve_data_spec(CFG), PLAIN_META),
            (
                model_config(
                    "micro", num_classes=3, block_norm="ln", drop_path_rate=0.1,
                    ablation="drop-global",
                ),
                SyntheticSpec(classes=3, image_size=40, noise=0.125, seed=7, train_size=32, val_size=16),
                ABLATED_META,
            ),
        ],
        ids=["plain", "ablated"],
    )
    def test_checkpoint_meta_bytes(self, tmp_path, mc, spec, expected):
        train_loop(build_model(mc, seed=7), SyntheticDataset(spec), self.CFG, tmp_path)
        for name in ("last.ckpt", "best.ckpt"):
            assert read_arrays(tmp_path / name)["meta"].tobytes() == expected.encode()

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_model_meta_round_trip(self, preset):
        for norm in NORM_KINDS:
            for ablation in (None,) + ABLATION_MODES:
                mc = model_config(preset, block_norm=norm, ablation=ablation)
                assert model_from_meta(model_meta(mc)) == mc

    def test_every_model_field_is_recorded(self):
        # a field without a metadata key cannot be rebuilt by eval or dump-alphas
        meta = model_meta(model_config("micro", ablation="drop-global"))
        assert len(meta) == len(dataclasses.fields(ModelConfig))
        assert all(key.startswith("model.") for key in meta)

    def test_every_data_field_is_recorded(self):
        assert list(data_meta(SyntheticSpec())) == [f"data.{f.name}" for f in dataclasses.fields(SyntheticSpec)]

    def test_missing_required_model_key_is_key_error(self):
        meta = model_meta(model_config("micro"))
        del meta["model.mlp_ratio"]
        with pytest.raises(CheckpointFormatError, match="model.mlp_ratio"):
            model_from_meta(meta)

    @pytest.mark.parametrize(
        "spec",
        [SyntheticSpec(), SyntheticSpec(classes=7, image_size=48, noise=0.1, seed=3, train_size=0, val_size=9)],
    )
    def test_data_meta_round_trip(self, spec):
        assert data_from_meta(data_meta(spec)) == spec

    def test_missing_data_keys_take_spec_defaults(self):
        assert data_from_meta({}) == SyntheticSpec()
        assert data_from_meta({"data.seed": "4"}) == SyntheticSpec(seed=4)
        assert data_from_meta({"data.seed": "4"}, {"seed": 5, "noise": 0.5}) == SyntheticSpec(
            seed=5, noise=0.5
        )

    def test_data_overrides_are_typed(self):
        assert parse_data_overrides(" classes=6, noise=0.25,,seed = 2") == {
            "classes": 6, "noise": 0.25, "seed": 2
        }


class TestTrainLoop:
    def test_zero_epochs_checkpoint_equals_init(self, tmp_path):
        cfg = TrainConfig(epochs=0, warmup_epochs=0, train_size=32, val_size=16)
        run_training(cfg, tmp_path)
        fresh = build_model(resolve_model_config(cfg), seed=cfg.seed)
        restored = build_model(resolve_model_config(cfg), seed=123)  # different init
        load_checkpoint(tmp_path / "last.ckpt", restored)
        for (name, a), (_, b) in zip(fresh.named_parameters(), restored.named_parameters()):
            assert np.array_equal(a.data, b.data), name

    def test_metrics_rows_match_history(self, tmp_path):
        cfg = TrainConfig(**TINY)
        history = run_training(cfg, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,train_acc,val_acc"
        assert len(lines) == 1 + cfg.epochs
        assert len(history) == cfg.epochs
        assert lines[-1] == history[-1].csv_line()

    def test_same_seed_byte_identical_runs(self, tmp_path):
        cfg = TrainConfig(**TINY, seed=5)
        run_training(cfg, tmp_path / "a")
        run_training(cfg, tmp_path / "b")
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()
        assert (tmp_path / "a/last.ckpt").read_bytes() == (tmp_path / "b/last.ckpt").read_bytes()
        assert (tmp_path / "a/best.ckpt").read_bytes() == (tmp_path / "b/best.ckpt").read_bytes()

    def test_eval_matches_final_val_acc(self, tmp_path):
        cfg = TrainConfig(**TINY, seed=1)
        history = run_training(cfg, tmp_path)
        model = build_model(resolve_model_config(cfg), seed=99)
        load_checkpoint(tmp_path / "last.ckpt", model)
        ds = SyntheticDataset(resolve_data_spec(cfg))
        acc = evaluate(model, ds, ds.val_indices, cfg.batch_size)
        assert acc == history[-1].val_acc

    def test_size_one_remainder_folds_into_previous_batch(self, tmp_path, monkeypatch):
        """65 = 64 + 1 trains as one batch of 65; the schedule counts one step an epoch."""
        calls = []
        real = training.cosine_lr

        def recorded(step, total, warmup, base_lr):
            calls.append((step, total))
            return real(step, total, warmup, base_lr)

        monkeypatch.setattr(training, "cosine_lr", recorded)
        cfg = TrainConfig(train_size=65, batch_size=64, epochs=2, val_size=8, warmup_epochs=0)
        history = run_training(cfg, tmp_path)
        assert calls == [(0, 2), (1, 2)]
        assert all(math.isfinite(r.train_loss) for r in history)

    def test_nan_loss_aborts_and_keeps_checkpoint(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        real = training.ce_label_smoothing

        def poisoned(logits, targets, smoothing):
            calls["n"] += 1
            if calls["n"] >= 2:
                return Tensor(np.full((1, 1, 1, 1), np.nan, dtype=np.float32), requires_grad=True)
            return real(logits, targets, smoothing)

        monkeypatch.setattr(training, "ce_label_smoothing", poisoned)
        cfg = TrainConfig(**TINY)
        model = build_model(resolve_model_config(cfg), seed=0)
        ds = SyntheticDataset(resolve_data_spec(cfg))
        with pytest.raises(NumericsError, match="non-finite loss"):
            train_loop(model, ds, cfg, tmp_path)
        restored = build_model(resolve_model_config(cfg), seed=7)
        load_checkpoint(tmp_path / "last.ckpt", restored)  # last-good state loads fine


class TestModePlumbing:
    def test_evaluate_records_no_tape(self, monkeypatch):
        model = build_model(model_config("micro", num_classes=4), seed=0)
        ds = SyntheticDataset(resolve_data_spec(TrainConfig(**TINY)))
        outputs = []
        forward = model.forward

        def recording(images, training=False, rng=None):
            outputs.append(forward(images, training, rng))
            return outputs[-1]

        monkeypatch.setattr(model, "forward", recording)
        evaluate(model, ds, ds.val_indices, 20)
        assert len(outputs) == 3  # chunks of 20, 20 and 8
        assert all(not out.requires_grad and out._parents == () for out in outputs)
        assert all(p.grad is None for _, p in model.named_parameters())

    def test_frozen_stats_reproduce_training_forward(self, monkeypatch):
        """With momentum 1, inference row-by-row matches the training pass."""
        monkeypatch.setattr(norm_mod, "MOMENTUM", 1.0)
        model = build_model(model_config("micro", num_classes=4), seed=0)
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (4, 3, 32, 32)).astype(np.float32)
        out_train = model.forward(Tensor(x), training=True).data
        for i in range(4):
            row = model.forward(Tensor(x[i : i + 1]), training=False).data
            np.testing.assert_allclose(row[0], out_train[i], rtol=1e-3, atol=1e-5)
